"""MultiDevice end to end: correctness on sharded state, bit-identical
replay and per-device cycle domains.

A 2-device run with cross-shard transfers must be bit-identical across
invocations, and every STM variant must stay oracle- and sanitizer-clean
against the sharded lock/memory state.
"""

import pytest

from repro.gpu import make_device
from repro.gpu.config import GpuConfig
from repro.gpu.errors import LaunchError
from repro.gpu.scheduler import Device
from repro.harness.configs import test_workload_params as workload_params
from repro.multigpu.device import MultiDevice
from repro.sched.explore import explore_gpu, run_under_schedule
from repro.stm import EXTENSION_VARIANTS, STM_VARIANTS
from repro.telemetry import Telemetry

MG_PARAMS = workload_params("mg")


def run_mg(variant="optimized", sanitize=True, telemetry=None, **overrides):
    params = dict(MG_PARAMS)
    params.update(overrides.pop("params", {}))
    gpu_overrides = {"devices": 2, "link_model": "switched:40,120"}
    gpu_overrides.update(overrides.pop("gpu_overrides", {}))
    return run_under_schedule(
        "mg", params, variant,
        num_locks=64,
        stm_overrides=dict(egpgv_max_blocks=params["grid"],
                           egpgv_max_threads_per_block=params["block"]),
        gpu=explore_gpu(max_steps=400_000, warp_size=8),
        gpu_overrides=gpu_overrides,
        record=False,
        capture_memory=True,
        sanitize=sanitize,
        telemetry=telemetry,
        **overrides,
    )


def outcome_digest(outcome):
    return (
        outcome.failure, outcome.cycles, outcome.steps, outcome.commits,
        outcome.aborts, outcome.final_words, sorted(outcome.counters.items()),
    )


class TestFactory:
    def test_make_device_dispatches_on_devices(self):
        single = make_device(explore_gpu())
        assert type(single) is Device
        multi = make_device(explore_gpu(devices=2))
        assert isinstance(multi, MultiDevice)
        assert multi.total_sms == 4  # 2 SMs per device x 2 devices

    def test_multidevice_rejects_single_device(self):
        with pytest.raises(LaunchError):
            MultiDevice(explore_gpu())

    def test_config_validates_devices(self):
        with pytest.raises(ValueError):
            GpuConfig(devices=0)
        with pytest.raises(ValueError):
            GpuConfig(devices=2, device_interleave_words=24)


class TestCorrectness:
    @pytest.mark.parametrize("variant", STM_VARIANTS + EXTENSION_VARIANTS)
    def test_all_variants_clean_on_sharded_state(self, variant):
        """All paper variants + extensions: conservation verified, oracle
        checked, sanitizer silent — against 2-device sharded state."""
        outcome = run_mg(variant)
        assert outcome.failure is None, outcome.detail
        assert outcome.commits > 0
        assert outcome.violations == []
        assert outcome.checked > 0

    def test_both_devices_execute_and_traffic_splits(self):
        outcome = run_mg("vbv")
        counters = outcome.counters
        # blocks land on both devices and both see local traffic
        assert counters.get("mg.d0.local", 0) > 0
        assert counters.get("mg.d1.local", 0) > 0
        # remote_frac=0.3 drives real cross-device transactions
        assert counters.get("mg.tx.remote", 0) > 0
        assert counters.get("mg.tx.local", 0) > 0
        assert counters.get("mg.remote.read", 0) > 0
        assert counters.get("mg.link.cycles", 0) > 0

    def test_remote_frac_zero_stays_local(self):
        outcome = run_mg("optimized", params={"remote_frac": 0.0})
        assert outcome.failure is None
        assert outcome.counters.get("mg.tx.remote", 0) == 0
        # the ledger's accounts are bucketed per device, so rf=0 transfers
        # never touch a remote home... except STM metadata (locks/clock)
        # which still shards; local tx counts must cover all threads
        expected_txs = MG_PARAMS["grid"] * MG_PARAMS["block"] * \
            MG_PARAMS["txs_per_thread"]
        assert outcome.counters.get("mg.tx.local", 0) == expected_txs

    def test_link_latency_slows_the_clock(self):
        fast = run_mg("optimized", gpu_overrides={"link_model": "uniform:10"})
        slow = run_mg("optimized", gpu_overrides={"link_model": "uniform:400"})
        assert fast.failure is None and slow.failure is None
        assert slow.cycles > fast.cycles


class TestDeterminism:
    def test_bit_identical_across_invocations(self):
        assert outcome_digest(run_mg("optimized")) == \
            outcome_digest(run_mg("optimized"))


class TestDeviceCycles:
    def test_per_device_cycle_domains(self):
        tel = Telemetry()
        outcome = run_mg("optimized", telemetry=tel)
        assert outcome.failure is None
        gauges = tel.registry.as_dict()["gauges"]
        assert "multigpu.d0.cycles" in gauges
        assert "multigpu.d1.cycles" in gauges
        assert gauges["multigpu.devices"] == 2
        counters = tel.registry.as_dict()["counters"]
        assert counters.get("multigpu.link.cycles", 0) > 0
