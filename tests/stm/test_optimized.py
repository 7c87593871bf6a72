"""STM-Optimized: adaptive HV/TBV selection (paper section 4.2)."""

import pytest

from repro.gpu import Device
from repro.gpu.config import small_config
from repro.stm import StmConfig, make_runtime
from repro.stm.runtime.optimized import OptimizedRuntime


def make(shared, locks):
    device = Device(small_config())
    return make_runtime(
        "optimized", device, StmConfig(num_locks=locks, shared_data_size=shared)
    )


class TestSelection:
    def test_selects_hv_when_shared_exceeds_locks(self):
        runtime = make(shared=4096, locks=16)
        assert runtime.selected == "hv"
        assert runtime.use_vbv
        assert runtime.stats["selected_hv"] == 1

    def test_selects_tbv_when_locks_cover_shared(self):
        runtime = make(shared=16, locks=16)
        assert runtime.selected == "tbv"
        assert not runtime.use_vbv
        assert runtime.stats["selected_tbv"] == 1

    def test_boundary_equal_selects_tbv(self):
        """shared == locks: no false conflicts possible, TBV chosen."""
        runtime = make(shared=64, locks=64)
        assert runtime.selected == "tbv"

    def test_negative_shared_rejected(self):
        device = Device(small_config())
        with pytest.raises(ValueError):
            OptimizedRuntime(device, shared_data_size=-1)

    def test_name_is_optimized(self):
        assert make(4, 16).name == "optimized"

    def test_uses_lock_sorting(self):
        """Livelock prevention comes from sorting: the lock log is the
        order-preserving kind, not encounter-order."""
        from repro.stm.locklog import LockLog

        device = Device(small_config())
        runtime = make_runtime(
            "optimized", device, StmConfig(num_locks=16, shared_data_size=64)
        )

        class FakeTc:
            tid = 0
            config = device.config

            class warp:
                shared = {}

        tx = runtime.tx_class(runtime, FakeTc())
        assert isinstance(tx.locklog, LockLog)
