"""The unsorted strawman runtime (ablation support module)."""

from repro.gpu import Device
from repro.gpu.config import small_config
from repro.stm import StmConfig, make_runtime
from repro.stm.locklog import EncounterOrderLog
from repro.stm.runtime.unsorted import (
    UnsortedNoBackoffRuntime,
    crossed_order_kernel,
)


class TestUnsortedRuntime:
    def test_name(self):
        device = Device(small_config())
        runtime = UnsortedNoBackoffRuntime(device, num_locks=8)
        assert runtime.name == "hv-unsorted-nobackoff"

    def test_unbounded_attempts_default(self):
        device = Device(small_config())
        runtime = UnsortedNoBackoffRuntime(device, num_locks=8)
        assert runtime.max_lock_attempts >= 10**9

    def test_class_forces_unbounded_attempts(self):
        """The unbounded retry bound is the class's, whatever bound the
        caller or the STM config passes."""
        device = Device(small_config())
        config = StmConfig(num_locks=8, max_lock_attempts=16)
        for runtime in (
            make_runtime("hv-unsorted-nobackoff", device, config),
            UnsortedNoBackoffRuntime(device, num_locks=8, max_lock_attempts=16),
        ):
            assert runtime.max_lock_attempts == 10**9

    def test_encounter_order_log(self):
        device = Device(small_config())
        runtime = UnsortedNoBackoffRuntime(device, num_locks=8)

        class FakeTc:
            tid = 0
            config = device.config

            class warp:
                shared = {}

        tx = runtime.tx_class(runtime, FakeTc())
        assert isinstance(tx.locklog, EncounterOrderLog)

    def test_works_fine_without_contention(self):
        """The strawman is functionally correct; only progress under
        adversarial lockstep contention is broken."""
        device = Device(small_config(warp_size=4, num_sms=1))
        data = device.mem.alloc(8, "data")
        runtime = UnsortedNoBackoffRuntime(device, num_locks=8)

        from repro.stm import run_transaction

        def kernel(tc):
            def body(stm):
                value = yield from stm.tx_read(data + tc.tid)
                if not stm.is_opaque:
                    return False
                yield from stm.tx_write(data + tc.tid, value + 1)
                return True

            yield from run_transaction(tc, body, max_restarts=100)

        device.launch(kernel, 1, 4, attach=runtime.attach)
        assert device.mem.snapshot(data, 4) == [1, 1, 1, 1]

    def test_crossed_kernel_shape(self):
        """The adversarial kernel touches exactly two stripes per lane."""
        kernel = crossed_order_kernel(100, 3)
        assert callable(kernel)
