"""Livelock freedom: the paper's core claim for encounter-time lock-sorting.

The adversarial scenario (section 2.2 / end of 3.2.2): two lanes of one warp
run transactions with *crossed* lock orders.  Under lockstep execution an
unsorted commit-time locker livelocks — both lanes grab their first lock in
the same step, fail on the second, release, and retry forever in perfect
symmetry.  Sorting the lock-log breaks the symmetry by construction; the
warp-serialized backoff breaks it by serializing the retries.
"""

import pytest

from repro.gpu import Device, ProgressError
from repro.gpu.config import small_config
from repro.stm import StmConfig, make_runtime, run_transaction
from repro.stm.runtime.unsorted import (
    UnsortedNoBackoffRuntime,
    crossed_order_kernel,
)
from repro.stm.locklog import EncounterOrderLog


def _launch_crossed(runtime_factory, max_steps=40_000):
    device = Device(small_config(warp_size=2, num_sms=1, max_steps=max_steps))
    data = device.mem.alloc(8, "data")
    runtime = runtime_factory(device)
    kernel = crossed_order_kernel(data, stripe_span=1)
    device.launch(kernel, 1, 2, attach=runtime.attach)
    return device, runtime, data


class TestCrossedOrders:
    def test_unsorted_unbounded_retries_livelock(self):
        """Without sorting or backoff, crossed orders livelock the warp."""
        with pytest.raises(ProgressError):
            _launch_crossed(
                lambda device: UnsortedNoBackoffRuntime(device, num_locks=8)
            )

    @pytest.mark.parametrize("variant", ["hv-sorting", "tbv-sorting", "optimized"])
    def test_lock_sorting_commits(self, variant):
        device, runtime, data = _launch_crossed(
            lambda device: make_runtime(
                variant,
                device,
                StmConfig(num_locks=8, shared_data_size=64, record_history=True),
            )
        )
        assert runtime.stats["commits"] == 2
        assert device.mem.read(data) == 2
        assert device.mem.read(data + 1) == 2

    def test_warp_backoff_commits(self):
        device, runtime, data = _launch_crossed(
            lambda device: make_runtime(
                "hv-backoff",
                device,
                StmConfig(num_locks=8, shared_data_size=64),
            ),
            max_steps=100_000,
        )
        assert runtime.stats["commits"] == 2
        assert device.mem.read(data) == 2

    def test_unsorted_single_lane_per_warp_is_fine(self):
        """The livelock needs lockstep symmetry; warp_size=1 has none."""
        device = Device(small_config(warp_size=1, num_sms=1, max_steps=200_000))
        data = device.mem.alloc(8, "data")
        runtime = UnsortedNoBackoffRuntime(device, num_locks=8)
        kernel = crossed_order_kernel(data, stripe_span=1)
        device.launch(kernel, 1, 2, attach=runtime.attach)
        assert runtime.stats["commits"] == 2


class TestSortedOrderProperty:
    def test_many_threads_many_locks_progress(self):
        """A wider stress: every lane touches several random stripes in a
        random order; sorting must still guarantee completion."""
        device = Device(small_config(warp_size=4, num_sms=2, max_steps=3_000_000))
        data = device.mem.alloc(64, "data")
        runtime = make_runtime(
            "hv-sorting", device, StmConfig(num_locks=16, shared_data_size=64)
        )

        from repro.common.rng import Xorshift32, thread_seed

        def kernel(tc):
            rng = Xorshift32(thread_seed(77, tc.tid))

            def body(stm):
                for _ in range(4):
                    addr = data + rng.randrange(64)
                    value = yield from stm.tx_read(addr)
                    if not stm.is_opaque:
                        return False
                    yield from stm.tx_write(addr, value + 1)
                return True

            yield from run_transaction(tc, body, max_restarts=100_000)

        device.launch(kernel, 2, 8, attach=runtime.attach)
        assert runtime.stats["commits"] == 16
