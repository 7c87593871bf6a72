"""The telemetry session: one registry plus an optional timeline.

A :class:`Telemetry` object is the handle the harness threads through a run
(``Device(config, telemetry=tel)`` / ``run_workload(..., telemetry=tel)``).
It owns the :class:`~repro.telemetry.registry.MetricRegistry` every layer
reports into and, when timeline recording is requested, a
:class:`~repro.telemetry.timeline.TimelineRecorder`.

It is also a runtime observer (:mod:`repro.stm.trace`): ``run_workload``
adds it to the runtime's one ``tracer`` slot, and its ``on_commit`` /
``on_abort`` seams are how read/write-set sizes reach the registry and
abort reasons and commit versions reach the timeline.  Every runtime
calls ``note_abort(reason, tx)`` *before* ``tc.tx_window_abort()`` (and
``note_commit`` before ``tx_window_commit``), so the session stashes the
reason/version per thread and each thread's timeline probe pops it for
the attempt slice's args.

The timeline probe (:meth:`Telemetry.thread_probe`) is one of the
:class:`~repro.gpu.thread.ProbedThreadCtx` probes: its ``charge`` seam is
the thread track's own ``charge``, so the Figure 5 breakdown re-derived
from the trace sees every charged cycle by construction — whichever other
probes (sanitizer, injector, multi-device link) share the launch.
"""

from repro.gpu.events import Phase
from repro.telemetry.registry import MetricRegistry
from repro.telemetry.timeline import TimelineRecorder


class _TimelineProbe:
    """One thread's timeline probe: charges, lock acquisitions, fences and
    transaction attempts, mirrored onto its track."""

    __slots__ = ("charge", "_track", "_session")

    def __init__(self, session, track):
        self.charge = track.charge
        self._track = track
        self._session = session

    def atomic(self, tc, op, addr, phase, a, b):
        if phase is Phase.LOCKS:
            self._track.instant("lock_acquire", tc.cycles_total, {"addr": addr})

    def event(self, tc, name, phase):
        track = self._track
        now = tc.cycles_total
        if name == "fence":
            track.instant("fence", now, {"phase": phase})
        elif name == "begin":
            track.tx_begin(now)
        elif name == "commit":
            track.tx_end(now, "commit",
                         version=self._session.pop_commit_version(tc.tid))
        else:
            track.tx_end(now, "abort",
                         reason=self._session.pop_abort_reason(tc.tid))


class Telemetry:
    """One telemetry session: metric registry + optional timeline."""

    __slots__ = ("registry", "timeline", "_abort_reasons", "_commit_versions")

    def __init__(self, timeline=False, meta=None):
        self.registry = MetricRegistry()
        self.timeline = TimelineRecorder(meta) if timeline else None
        self._abort_reasons = {}
        self._commit_versions = {}

    # ------------------------------------------------------------------
    # runtime observer seams (run_workload adds the session to the slot)
    # ------------------------------------------------------------------
    def on_commit(self, tx, version):
        registry = self.registry
        registry.observe("stm.tx.read_set", len(list(tx.read_entries())))
        registry.observe("stm.tx.write_set", len(tx.write_entries()))
        if self.timeline is not None:
            self._commit_versions[tx.tc.tid] = version

    def on_abort(self, tx, reason):
        if self.timeline is not None:
            self._abort_reasons[tx.tc.tid] = reason

    def pop_commit_version(self, tid):
        return self._commit_versions.pop(tid, None)

    def pop_abort_reason(self, tid):
        return self._abort_reasons.pop(tid, None)

    # ------------------------------------------------------------------
    # Scheduler hooks
    # ------------------------------------------------------------------
    def thread_probe(self, tid, block):
        """The launcher's probe maker: ``tid``'s timeline probe in the
        current launch."""
        return _TimelineProbe(self, self.timeline.track(tid))

    def begin_launch(self, kernel_name, num_sms):
        self.registry.add("kernel.launches")
        if self.timeline is not None:
            self.timeline.begin_launch(kernel_name, num_sms)

    def record_turn(self, sm_index, warp_id, start, cycles, steps):
        self.registry.add("sm.%d.warp_steps" % sm_index, steps)
        if self.timeline is not None:
            self.timeline.sm_turn(sm_index, warp_id, start, cycles, steps)

    def publish_kernel(self, result, sms):
        """Counters/histograms from one finished kernel launch."""
        registry = self.registry
        name = result.kernel_name.replace("-", "_")
        registry.add("kernel.%s.cycles" % name, result.cycles)
        registry.add("kernel.%s.steps" % name, result.steps)
        registry.add("mem.coalesced_txns", result.mem_txns)
        registry.add("mem.bandwidth_cycles", result.bandwidth_cycles)
        for sm in sms:
            registry.add("sm.%d.cycles" % sm.index, sm.cycles)
        for phase, cycles in result.phases.as_dict().items():
            registry.add("phase.%s.cycles" % phase, cycles)
        registry.observe("kernel.cycles", result.cycles)

    def publish_snapshot(self, snapshot):
        """Watchdog diagnostic snapshot -> per-SM gauges + a trip counter."""
        registry = self.registry
        for state in snapshot["sms"]:
            prefix = "watchdog.sm.%d" % state["sm"]
            registry.set_gauge(prefix + ".pending_blocks", state["pending_blocks"])
            registry.set_gauge(prefix + ".resident_blocks", state["resident_blocks"])
            registry.set_gauge(prefix + ".resident_warps", state["resident_warps"])
            registry.set_gauge(prefix + ".cycles", state["cycles"])
        registry.set_gauge("watchdog.live_warps", len(snapshot["live_warps"]))
        registry.add("watchdog.trips")

    # ------------------------------------------------------------------
    # Memory system
    # ------------------------------------------------------------------
    def publish_memory(self, mem):
        """Gauge snapshot of the device memory layout."""
        registry = self.registry
        summary = mem.stats_summary()
        registry.set_gauge("mem.words", summary["words"])
        registry.set_gauge("mem.regions", summary["regions"])
        for name, words in summary["region_words"].items():
            registry.set_gauge("mem.region.%s.words" % name, words)

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def write_metrics(self, path):
        return self.registry.write_json(path)

    def write_timeline(self, path):
        if self.timeline is None:
            raise ValueError("telemetry session has no timeline recorder")
        return self.timeline.write(path)

    def __repr__(self):
        return "Telemetry(%r, timeline=%s)" % (
            self.registry, self.timeline is not None
        )
