"""STM-HV-Backoff: the two-phase warp backoff (paper section 4.2)."""

from repro.gpu import Device
from repro.gpu.config import small_config
from repro.stm import StmConfig, make_runtime
from repro.stm.locklog import EncounterOrderLog
from repro.stm.runtime.hv_backoff import HvBackoffRuntime, HvBackoffTx
from tests.stm.helpers import counter_kernel, make_stm_device, transfer_kernel


class TestStructure:
    def test_uses_encounter_order_log(self):
        device = Device(small_config())
        runtime = make_runtime("hv-backoff", device, StmConfig(num_locks=16))

        class FakeTc:
            tid = 0
            config = device.config

            class warp:
                shared = {}

        tx = runtime.tx_class(runtime, FakeTc())
        assert isinstance(tx.locklog, EncounterOrderLog)

    def test_always_hierarchical_validation(self):
        device = Device(small_config())
        runtime = HvBackoffRuntime(device, num_locks=16)
        assert runtime.use_vbv
        assert runtime.name == "hv-backoff"

    def test_abort_jitter_enabled_by_default(self):
        device = Device(small_config())
        runtime = HvBackoffRuntime(device, num_locks=16)
        assert runtime.abort_jitter > 0


class TestBehaviour:
    def test_contended_counter_correct(self):
        device, runtime, data, _ = make_stm_device("hv-backoff", data_size=4)
        device.launch(counter_kernel(data, 4), 2, 8, attach=runtime.attach)
        assert device.mem.read(data) == 100 + 2 * 8 * 4

    def test_phase2_entries_counted_under_contention(self):
        """Intra-warp lock collisions push lanes into the serialized
        second phase."""
        device, runtime, data, _ = make_stm_device(
            "hv-backoff", data_size=4, num_locks=4
        )
        device.launch(counter_kernel(data, 6), 1, 8, attach=runtime.attach)
        assert runtime.stats["backoff_phase2_entries"] > 0

    def test_queue_left_empty_after_kernel(self):
        device, runtime, data, _ = make_stm_device("hv-backoff", data_size=16)
        kernel = transfer_kernel(data, 16, txs_per_thread=2, moves_per_tx=2, seed=5)
        contexts = []

        def attach(tc):
            runtime.attach(tc)
            contexts.append(tc)

        device.launch(kernel, 1, 8, attach=attach)
        # every phase-2 entrant popped itself off the warp queue
        for tc in contexts:
            queue = tc.warp.shared.get(HvBackoffTx._QUEUE_KEY)
            assert not queue
