"""STM-HV-Adaptive: adaptive selection between lock-sorting and backoff.

The paper's section 4.2 closes with: "adaptive selection between lock
sorting and backoff may yield better overall performance.  We leave this as
future work."  This runtime is that future work, prototyped.

The observation behind it: encounter-time lock-sorting exists to break the
*intra-warp* lockstep symmetry of commit-time locking.  When a warp has at
most one transaction in flight (LB's one-router-per-block pattern), sorting
buys nothing — it only spends insertion comparisons — and when a warp is
full of transactions, sorting is what guarantees livelock freedom.  So each
transaction checks how many of its warp's lanes are currently inside
transactions and picks:

* **>= 2 live transactions in the warp** — the order-preserving sorted log
  (livelock-free parallel acquisition);
* **solo in the warp** — the raw encounter-order log: no sorting cost, and
  intra-warp livelock is impossible with one transactional lane.  Cross-warp
  retry symmetry is broken by the inherited abort jitter.

The choice is made per transaction at TXBegin, tracked in
``stats["adaptive_sorted"]`` / ``stats["adaptive_unsorted"]``.
"""

from repro.gpu.events import Phase
from repro.stm.locklog import EncounterOrderLog, LockLog
from repro.stm.runtime.locksorting import LockSortingRuntime, LockSortingTx


class HvAdaptiveTx(LockSortingTx):
    """Transaction that picks its lock-log organization at begin time."""

    _ACTIVE_KEY = "adaptive_tx_active"

    def __init__(self, runtime, tc):
        super().__init__(runtime, tc)
        self._sorted_log = self.locklog  # the LockLog built by the base
        self._unsorted_log = EncounterOrderLog(runtime.lock_table.num_locks)
        self._counted_active = False

    def tx_begin(self):
        tc = self.tc
        shared = tc.warp.shared
        active = shared.get(self._ACTIVE_KEY, 0)
        shared[self._ACTIVE_KEY] = active + 1
        self._counted_active = True
        # `active` counts warp-mates already inside transactions; any
        # company means lockstep commit collisions are possible and sorting
        # is required for livelock freedom.
        if active >= 1:
            self.locklog = self._sorted_log
            self.runtime.stats.add("adaptive_sorted")
        else:
            self.locklog = self._unsorted_log
            self.runtime.stats.add("adaptive_unsorted")
        yield from super().tx_begin()

    def _leave_tx(self):
        if self._counted_active:
            shared = self.tc.warp.shared
            shared[self._ACTIVE_KEY] = max(0, shared.get(self._ACTIVE_KEY, 1) - 1)
            self._counted_active = False

    def tx_commit(self):
        committed = yield from super().tx_commit()
        if committed:
            self._leave_tx()
        return committed

    def _abort(self, reason):
        self._leave_tx()
        return (yield from super()._abort(reason))


class HvAdaptiveRuntime(LockSortingRuntime):
    """Hierarchical validation with per-transaction sorting/backoff choice."""

    name = "hv-adaptive"
    tx_class = HvAdaptiveTx

    def __init__(self, device, **kwargs):
        kwargs.setdefault("use_vbv", True)
        # jitter covers the unsorted path's cross-warp retry symmetry
        kwargs.setdefault("abort_jitter", 4)
        super().__init__(device, **kwargs)

    def metric_gauges(self):
        gauges = super().metric_gauges()
        sorted_picks = self.stats["adaptive_sorted"]
        total = sorted_picks + self.stats["adaptive_unsorted"]
        gauges["sorted_fraction"] = sorted_picks / total if total else 0.0
        return gauges
