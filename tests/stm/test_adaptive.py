"""HV-Adaptive: the paper's future-work sorting/backoff selection."""

from repro.gpu import Device
from repro.gpu.config import small_config
from repro.stm import StmConfig, make_runtime, run_transaction
from repro.stm.runtime.adaptive import HvAdaptiveTx
from repro.stm.runtime.unsorted import crossed_order_kernel
from tests.stm.helpers import counter_kernel, make_stm_device, transfer_kernel


class TestSelection:
    def test_solo_transactional_lane_goes_unsorted(self):
        """One router per warp (the LB pattern): sorting is skipped."""
        device = Device(small_config(warp_size=4, num_sms=1))
        data = device.mem.alloc(8, "data")
        runtime = make_runtime(
            "hv-adaptive", device, StmConfig(num_locks=8, shared_data_size=8)
        )

        def kernel(tc):
            if tc.lane_id != 0:
                yield
                return

            def body(stm):
                value = yield from stm.tx_read(data)
                if not stm.is_opaque:
                    return False
                yield from stm.tx_write(data, value + 1)
                return True

            yield from run_transaction(tc, body, max_restarts=100)

        device.launch(kernel, 2, 4, attach=runtime.attach)
        assert runtime.stats["adaptive_unsorted"] >= 2
        assert runtime.stats["adaptive_sorted"] == 0
        assert device.mem.read(data) == 2

    def test_full_warp_goes_sorted(self):
        device, runtime, data, _ = make_stm_device("hv-adaptive", data_size=16)
        kernel = transfer_kernel(data, 16, txs_per_thread=2, moves_per_tx=1, seed=3)
        device.launch(kernel, 1, 8, attach=runtime.attach)
        assert runtime.stats["adaptive_sorted"] > 0
        assert sum(device.mem.snapshot(data, 16)) == 16 * 100


class TestCorrectnessAndProgress:
    def test_crossed_orders_still_commit(self):
        """The adversarial section 2.2 workload: both lanes in one warp, so
        the adaptive runtime must select sorting and stay livelock-free for
        the lane that has company; the solo-start lane is protected by
        bounded attempts plus jitter."""
        device = Device(small_config(warp_size=2, num_sms=1, max_steps=300_000))
        data = device.mem.alloc(8, "data")
        runtime = make_runtime(
            "hv-adaptive", device, StmConfig(num_locks=8, shared_data_size=8)
        )
        kernel = crossed_order_kernel(data, 1)
        device.launch(kernel, 1, 2, attach=runtime.attach)
        assert runtime.stats["commits"] == 2
        assert device.mem.read(data) == 2

    def test_contended_counter_correct(self):
        device, runtime, data, _ = make_stm_device("hv-adaptive", data_size=4)
        device.launch(counter_kernel(data, 4), 2, 8, attach=runtime.attach)
        assert device.mem.read(data) == 100 + 2 * 8 * 4

    def test_active_counter_returns_to_zero(self):
        device, runtime, data, _ = make_stm_device("hv-adaptive", data_size=16)
        kernel = transfer_kernel(data, 16, txs_per_thread=2, moves_per_tx=2, seed=7)
        contexts = []

        def attach(tc):
            runtime.attach(tc)
            contexts.append(tc)

        device.launch(kernel, 2, 8, attach=attach)
        for tc in contexts:
            assert tc.warp.shared.get(HvAdaptiveTx._ACTIVE_KEY, 0) == 0

    def test_serializable_history(self):
        from repro.stm.oracle import check_history

        device, runtime, data, initial = make_stm_device("hv-adaptive", data_size=32)
        kernel = transfer_kernel(data, 32, txs_per_thread=2, moves_per_tx=2, seed=9)
        device.launch(kernel, 2, 8, attach=runtime.attach)
        check_history(runtime.history, initial, device.mem)
