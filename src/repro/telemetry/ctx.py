"""Telemetry-instrumented thread context.

:class:`TelemetryThreadCtx` is a drop-in :class:`~repro.gpu.thread.ThreadCtx`
subclass that mirrors every latency charge into a timeline thread track.
The base class keeps its manually-inlined hot paths untouched — the
zero-cost-when-disabled guarantee — so this subclass re-implements
``gread``/``gread_l2``/``gwrite``/``atomic_cas`` as straightforward
wrappers around the (overridden) ``_account``.  Simulated costs are
*data*, not wall-clock, so the slower wrappers produce bit-identical cycle
counts; the golden-cycle and telemetry-equivalence tests pin that.

Coverage argument: ``cycles_total`` only ever advances through ``charge``,
``_account``, the inlined bodies of ``gread``/``gread_l2``/``gwrite``/
``atomic_cas``/``work``/``local_op``, and nothing else — all overridden
here — so the timeline sees every charged cycle and the Figure 5 breakdown
re-derived from the trace equals ``KernelResult.phases`` exactly.  (Lane
steppers, :mod:`repro.gpu.steppers`, run in exact mode on this context:
every probe is one of the calls above.)
"""

from repro.gpu.events import OpKind, Phase
from repro.gpu.thread import ThreadCtx


class TelemetryThreadCtx(ThreadCtx):
    """ThreadCtx that mirrors charges, tx windows and sync events into a
    :class:`~repro.telemetry.timeline.TimelineRecorder` thread track."""

    __slots__ = ("_session", "_track")

    def __init__(self, tid, lane_id, warp, block, mem, config, session):
        ThreadCtx.__init__(self, tid, lane_id, warp, block, mem, config)
        self._session = session
        self._track = session.timeline.track(tid)

    # ------------------------------------------------------------------
    # Charge mirroring
    # ------------------------------------------------------------------
    def charge(self, phase, cycles):
        start = self.cycles_total
        ThreadCtx.charge(self, phase, cycles)
        self._track.charge(phase, start, cycles)

    def _account(self, kind, addr, phase, cycles):
        start = self.cycles_total
        ThreadCtx._account(self, kind, addr, phase, cycles)
        track = self._track
        track.charge(phase, start, cycles)
        if kind is OpKind.ATOMIC and phase is Phase.LOCKS:
            track.instant("lock_acquire", self.cycles_total, {"addr": addr})

    def gread(self, addr, phase=Phase.NATIVE):
        if self._check_bounds:
            self.mem.check(addr)
        self._account(OpKind.READ, addr, phase, self._mem_latency)
        return self._words[addr]

    def gread_l2(self, addr, phase=Phase.NATIVE):
        if self._check_bounds:
            self.mem.check(addr)
        self._account(OpKind.L2_READ, addr, phase, self._l2_read_latency)
        return self._words[addr]

    def gwrite(self, addr, value, phase=Phase.NATIVE):
        if self._check_bounds:
            self.mem.check(addr)
        self._account(OpKind.WRITE, addr, phase, self._mem_latency)
        self._words[addr] = value

    def atomic_cas(self, addr, expected, new, phase=Phase.NATIVE):
        if self._check_bounds:
            self.mem.check(addr)
        self._account(OpKind.ATOMIC, addr, phase, self._atomic_latency)
        return self.mem.atomic_cas(addr, expected, new)

    def work(self, cycles, phase=Phase.NATIVE):
        start = self.cycles_total
        ThreadCtx.work(self, cycles, phase)
        self._track.charge(phase, start, cycles)

    def local_op(self, phase=Phase.BUFFERING, count=1):
        start = self.cycles_total
        ThreadCtx.local_op(self, phase, count)
        self._track.charge(phase, start, self.cycles_total - start)

    # ------------------------------------------------------------------
    # Instants and transaction windows
    # ------------------------------------------------------------------
    def fence(self, phase=Phase.NATIVE):
        ThreadCtx.fence(self, phase)  # routes through the overridden _account
        self._track.instant("fence", self.cycles_total, {"phase": phase})

    def tx_window_begin(self):
        ThreadCtx.tx_window_begin(self)
        self._track.tx_begin(self.cycles_total)

    def tx_window_commit(self):
        # note_commit fires before tx_window_commit in every runtime, so the
        # session already holds this thread's commit version
        ThreadCtx.tx_window_commit(self)
        self._track.tx_end(
            self.cycles_total, "commit",
            version=self._session.pop_commit_version(self.tid),
        )

    def tx_window_abort(self):
        ThreadCtx.tx_window_abort(self)
        self._track.tx_end(
            self.cycles_total, "abort",
            reason=self._session.pop_abort_reason(self.tid),
        )
