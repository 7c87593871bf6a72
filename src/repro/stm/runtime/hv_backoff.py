"""STM-HV-Backoff: hierarchical validation with a GPU-specific backoff
instead of encounter-time lock-sorting (paper section 4.2).

Classic exponential backoff cannot work on GPUs — lanes of a warp execute in
lockstep and cannot wait for *different* random delays.  The paper's
GPU-specific alternative, reproduced here:

1. **Parallel first attempt** — every committing lane of the warp tries to
   acquire its locks (in raw encounter order, no sorting) simultaneously.
2. **Serialized retries** — lanes that failed enqueue on a warp-local queue
   and retry strictly one at a time while the rest of the queue idles;
   winners of phase 1 meanwhile validate and write back in parallel.

Serializing the retries removes intra-warp livelock (no two lanes of a warp
re-attempt in the same step), at the price of a commit-time bottleneck —
which is exactly why Figure 2 shows STM-HV-Sorting beating STM-HV-Backoff on
the low-conflict workloads.
"""

from repro.gpu.events import Phase
from repro.stm.runtime.locksorting import LockSortingRuntime, LockSortingTx


class HvBackoffTx(LockSortingTx):
    """Transaction with encounter-order locks and two-phase warp backoff."""

    _QUEUE_KEY = "hv_backoff_queue"

    def _acquire_phase(self):
        tc = self.tc
        runtime = self.runtime

        # Phase 1: all lanes of the warp attempt in parallel (lockstep).
        acquired = yield from self._get_locks_and_tbv()
        if acquired:
            return True
        runtime.stats.add("backoff_phase2_entries")

        # Phase 2: failed lanes retry serially within the warp.
        queue = tc.warp.shared.setdefault(self._QUEUE_KEY, [])
        queue.append(tc.lane_id)
        while queue[0] != tc.lane_id:
            tc.work(1, Phase.LOCKS)  # inactive lane waiting its turn
            yield
        try:
            attempts = 1
            while True:
                acquired = yield from self._get_locks_and_tbv()
                if acquired:
                    return True
                attempts += 1
                if attempts >= runtime.max_lock_attempts:
                    return (yield from self._abort("lock_contention"))
                # Wait for the conflicting holder (a parallel-phase winner
                # or a committer in another warp) to release.
                yield self._wait_lock_free(self._failed_lock)
        finally:
            queue.pop(0)


class HvBackoffRuntime(LockSortingRuntime):
    """Runtime of STM-HV-Backoff (always hierarchical validation)."""

    name = "hv-backoff"
    tx_class = HvBackoffTx

    # raw encounter-order lock logs: the warp backoff, not sorting,
    # prevents intra-warp livelock
    sort_locks = False

    def __init__(self, device, **kwargs):
        kwargs.setdefault("use_vbv", True)
        kwargs.setdefault("abort_jitter", 4)
        super().__init__(device, **kwargs)

    def metric_gauges(self):
        gauges = super().metric_gauges()
        # fraction of attempts that escalated to the queueing phase: the
        # contention signal this variant's two-phase backoff responds to
        attempts = self.stats["begins"]
        entries = self.stats["backoff_phase2_entries"]
        gauges["phase2_fraction"] = entries / attempts if attempts else 0.0
        return gauges
