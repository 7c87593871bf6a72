"""The unsorted strawman: GPU-STM with encounter-time lock-sorting removed.

This runtime exists to *demonstrate the problem* the paper's section 2.2
describes and section 3.1 solves: commit-time locking in raw encounter
order, with unbounded symmetric retries and no backoff.  Two lanes of one
warp whose transactions touch the same two stripes in opposite orders fail
their second acquisition in the same lockstep step, release, and retry
forever — a livelock the watchdog reports as
:class:`~repro.gpu.errors.ProgressError`.

Used by the livelock tests and the lock-sorting ablation benchmark.  Never
use it for real work.
"""

from repro.stm.runtime.locksorting import LockSortingRuntime


class UnsortedNoBackoffRuntime(LockSortingRuntime):
    """Hierarchical validation, encounter-order locking, unbounded retries."""

    name = "hv-unsorted-nobackoff"
    sort_locks = False

    def __init__(self, device, **kwargs):
        # the strawman's defining property is unbounded symmetric retries
        # with no backoff: lock acquisition never gives up, so crossed
        # lock orders livelock instead of aborting their way to progress
        kwargs["max_lock_attempts"] = 10**9
        super().__init__(device, **kwargs)

    def metric_gauges(self):
        gauges = super().metric_gauges()
        # marks the strawman in merged dashboards: its runs livelock by
        # design, so aggregated sweeps must be able to filter them out
        gauges["sorting_disabled"] = 1
        return gauges


def crossed_order_kernel(data, stripe_span):
    """Adversarial kernel: lane 0 touches (A, B), lane 1 touches (B, A).

    ``stripe_span`` separates A and B so they map to different global
    version locks.  Under lockstep execution this livelocks any unsorted,
    backoff-free commit-time locker.
    """
    from repro.stm.api import run_transaction

    def kernel(tc):
        a = data
        b = data + stripe_span
        first, second = (a, b) if tc.lane_id == 0 else (b, a)

        def body(stm):
            first_value = yield from stm.tx_read(first)
            if not stm.is_opaque:
                return False
            second_value = yield from stm.tx_read(second)
            if not stm.is_opaque:
                return False
            yield from stm.tx_write(first, first_value + 1)
            yield from stm.tx_write(second, second_value + 1)
            return True

        yield from run_transaction(tc, body)

    return kernel
