"""Chrome-trace timeline over *simulated* cycles.

:class:`TimelineRecorder` produces a Chrome Trace Event Format file
(viewable in ``chrome://tracing`` or https://ui.perfetto.dev) whose time
axis is simulated device cycles — one microsecond in the viewer corresponds
to one cycle.  Two families of tracks are emitted per kernel launch (one
trace *process* per launch, so back-to-back launches do not overlap even
though each restarts its clocks):

* **SM issue tracks** (one per streaming multiprocessor, in SM-throughput
  time ``sm.cycles``): a slice per issued warp turn, named after the warp.
* **thread tracks** (one per simulated thread, in per-lane latency time
  ``cycles_total``): slices for the Figure 5 execution phases, an outer
  ``tx`` slice per transaction attempt carrying its outcome (and abort
  reason / commit version) as args, and instant events for fences and lock
  acquisitions.

The recorder mirrors the :class:`~repro.gpu.thread.ThreadCtx` accounting
exactly — including the reclassification of an aborted attempt's cycles to
the ``aborted`` phase — so the Figure 5 phase breakdown is re-derivable
from the trace alone (:meth:`TimelineRecorder.phase_cycles`), a cross-check
against ``KernelResult.phases``.
"""

import json

from repro.gpu.events import Phase

#: thread tracks live far above SM tids so the two families never collide
THREAD_TRACK_OFFSET = 1 << 20


class _ThreadTrack:
    """Per-thread event buffer with phase-slice coalescing.

    Adjacent charges to the same phase at contiguous timestamps — the
    dominant pattern, since kernels run long homogeneous stretches — are
    merged into one slice, keeping traces small.  Transaction attempts are
    bracketed by :meth:`tx_begin` / :meth:`tx_end`; on abort, the attempt's
    phase slices are collapsed into a single ``aborted`` slice, mirroring
    ``ThreadCtx.tx_window_abort``.
    """

    __slots__ = ("pid", "tid", "events", "_phase", "_start", "_dur",
                 "_mark", "_attempt_start")

    def __init__(self, pid, tid):
        self.pid = pid
        self.tid = tid
        self.events = []
        self._phase = None
        self._start = 0
        self._dur = 0
        self._mark = None
        self._attempt_start = None

    def charge(self, phase, start, cycles):
        """Record ``cycles`` of ``phase`` beginning at timestamp ``start``."""
        if not cycles:
            return
        if phase == self._phase and start == self._start + self._dur:
            self._dur += cycles
            return
        self._flush()
        self._phase = phase
        self._start = start
        self._dur = cycles

    def _flush(self):
        if self._phase is not None:
            self.events.append({
                "ph": "X", "cat": "phase", "pid": self.pid, "tid": self.tid,
                "name": self._phase, "ts": self._start, "dur": self._dur,
            })
            self._phase = None

    def instant(self, name, ts, args=None):
        event = {
            "ph": "i", "s": "t", "cat": "instant", "pid": self.pid,
            "tid": self.tid, "name": name, "ts": ts,
        }
        if args:
            event["args"] = args
        self.events.append(event)

    def tx_begin(self, ts):
        self._flush()
        self._attempt_start = ts
        self._mark = len(self.events)

    def tx_end(self, ts, outcome, reason=None, version=None):
        self._flush()
        start = self._attempt_start
        if start is None:  # unmatched end: nothing to bracket
            return
        args = {"outcome": outcome}
        attempt = {
            "ph": "X", "cat": "tx", "pid": self.pid, "tid": self.tid,
            "name": "tx", "ts": start, "dur": ts - start, "args": args,
        }
        if outcome == "abort":
            args["reason"] = reason
            attempt["cname"] = "terrible"
            # Collapse the attempt's phase slices into one `aborted` slice,
            # exactly as ThreadCtx.tx_window_abort reclassifies the window's
            # charges; instants survive with their original timestamps.
            kept = []
            aborted = 0
            for event in self.events[self._mark:]:
                if event.get("cat") == "phase":
                    aborted += event["dur"]
                else:
                    kept.append(event)
            del self.events[self._mark:]
            self.events.append(attempt)
            if aborted:
                self.events.append({
                    "ph": "X", "cat": "phase", "pid": self.pid,
                    "tid": self.tid, "name": Phase.ABORTED,
                    "ts": start, "dur": aborted,
                })
            self.events.extend(kept)
        else:
            if version is not None:
                args["version"] = version
            attempt["cname"] = "good"
            self.events.append(attempt)
        self._attempt_start = None
        self._mark = None

    def finish(self):
        self._flush()


class TimelineRecorder:
    """Collects trace events across kernel launches; see the module doc."""

    __slots__ = ("meta", "_events", "_tracks", "_launch", "_finished")

    def __init__(self, meta=None):
        self.meta = dict(meta or {})
        self._events = []
        self._tracks = {}
        self._launch = -1
        self._finished = False

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def begin_launch(self, kernel_name, num_sms):
        """Open a new trace process for one kernel launch; returns its pid."""
        for track in self._tracks.values():
            track.finish()
        self._launch += 1
        pid = self._launch
        self._events.append({
            "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
            "args": {"name": "launch %d: %s" % (pid, kernel_name)},
        })
        for sm in range(num_sms):
            self._events.append({
                "ph": "M", "name": "thread_name", "pid": pid, "tid": sm,
                "args": {"name": "SM %d issue" % sm},
            })
        return pid

    def sm_turn(self, sm_index, warp_id, start, cycles, steps):
        """One issued warp turn on an SM track (SM-throughput time)."""
        self._events.append({
            "ph": "X", "cat": "sm", "pid": self._launch, "tid": sm_index,
            "name": "warp %d" % warp_id, "ts": start, "dur": cycles,
            "args": {"steps": steps},
        })

    def track(self, tid):
        """The thread track for ``tid`` in the current launch."""
        key = (self._launch, tid)
        track = self._tracks.get(key)
        if track is None:
            track = _ThreadTrack(self._launch, THREAD_TRACK_OFFSET + tid)
            self._tracks[key] = track
            self._events.append({
                "ph": "M", "name": "thread_name", "pid": self._launch,
                "tid": track.tid, "args": {"name": "thread %d" % tid},
            })
        return track

    def finish(self):
        """Flush every open slice; recording can still continue after."""
        for track in self._tracks.values():
            track.finish()
        self._finished = True

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def events(self):
        """All events recorded so far (open slices flushed first)."""
        self.finish()
        out = list(self._events)
        for key in sorted(self._tracks):
            out.extend(self._tracks[key].events)
        return out

    def to_chrome_trace(self):
        """The trace as a Chrome Trace Event Format object."""
        other = {"time_unit": "simulated cycles (1us in the viewer = 1 cycle)"}
        other.update(self.meta)
        return {
            "traceEvents": self.events(),
            "displayTimeUnit": "ms",
            "otherData": other,
        }

    def write(self, path):
        """Write the Chrome-trace JSON to ``path``; returns the path.

        Atomic (temp file + ``os.replace``): a worker killed mid-dump never
        leaves a truncated trace in the timeline directory.
        """
        from repro.common.fsio import atomic_open

        with atomic_open(path) as handle:
            json.dump(self.to_chrome_trace(), handle)
            handle.write("\n")
        return path

    # ------------------------------------------------------------------
    # Re-derivation of the Figure 5 breakdown
    # ------------------------------------------------------------------
    def phase_cycles(self, launch=None):
        """Cycles per Figure 5 phase, summed from the trace's phase slices.

        ``launch`` restricts the sum to one kernel launch (trace process);
        the default sums the whole run.  Matches the simulator's own
        ``KernelResult.phases`` accounting exactly.
        """
        totals = {}
        for event in self.events():
            if event.get("cat") != "phase":
                continue
            if launch is not None and event["pid"] != launch:
                continue
            name = event["name"]
            totals[name] = totals.get(name, 0) + event["dur"]
        return totals

    def phase_fractions(self, launch=None):
        """``{phase: fraction}`` re-derived from the trace (cf. Figure 5)."""
        totals = self.phase_cycles(launch)
        total = sum(totals.values())
        if not total:
            return {}
        return {phase: value / total for phase, value in totals.items()}
