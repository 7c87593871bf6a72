"""The online sanitizer: no false positives, cost-neutral, catches faults."""

import pytest

from repro.faults.sanitizer import StmSanitizer
from repro.gpu import Device
from repro.harness.configs import explore_gpu
from repro.stm import STM_VARIANTS, EXTENSION_VARIANTS, StmConfig, make_runtime

from tests.helpers import explore

PARAMS = dict(array_size=64, grid=2, block=16, txs_per_thread=2, actions_per_tx=2)
ALL_VARIANTS = tuple(STM_VARIANTS) + tuple(EXTENSION_VARIANTS)


class TestNoFalsePositives:
    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_clean_runtime_stays_clean(self, variant):
        outcome = explore("ra", PARAMS, variant, sanitize=True)
        assert outcome.failure is None
        assert outcome.violations == []

    @pytest.mark.parametrize("variant", ("hv-sorting", "vbv", "egpgv"))
    def test_clean_under_adversarial_schedule(self, variant):
        outcome = explore(
            "ra", PARAMS, variant, policy="adversarial:3", sanitize=True,
        )
        assert outcome.failure is None
        assert outcome.violations == []


class TestCostNeutrality:
    @pytest.mark.parametrize("variant", ("hv-sorting", "vbv", "cgl", "egpgv"))
    def test_sanitized_cycles_match_unsanitized(self, variant):
        """The instrumented context must charge exactly the base costs:
        watching a run may not change its simulated timing."""
        plain = explore("ra", PARAMS, variant)
        watched = explore("ra", PARAMS, variant, sanitize=True)
        assert watched.cycles == plain.cycles
        assert watched.steps == plain.steps
        assert watched.commits == plain.commits
        assert watched.aborts == plain.aborts


class TestDetection:
    def test_clock_skew_fault_is_flagged(self):
        outcome = explore(
            "ra", PARAMS, "hv-backoff",
            sanitize=True,
            fault_plan=["clock_skew:region=g_clock,count=2"],
        )
        assert outcome.failure == "sanitizer"
        assert any(v["check"] == "clock_monotonicity" for v in outcome.violations)

    def test_vbv_torn_sequence_release_is_flagged(self):
        # tearing the release store's low bit rolls the sequence back to
        # its pre-commit value: the next writer reuses the commit version
        # and the exit seq/commit-count comparison disagrees
        outcome = explore(
            "ra", PARAMS, "vbv",
            sanitize=True,
            fault_plan=["torn_write:region=g_seqlock,param=1,count=1"],
        )
        assert outcome.failure == "sanitizer"
        checks = [v["check"] for v in outcome.violations]
        assert "clock_monotonicity" in checks

    def test_violations_feed_metric_registry(self):
        from repro.telemetry import MetricRegistry

        registry = MetricRegistry()
        sanitizer = StmSanitizer(registry=registry)
        sanitizer._violate("lock_leak", None, 7, "synthetic")
        sanitizer._violate("lock_leak", None, 8, "synthetic")
        assert registry.counter("sanitizer.violations").value == 2
        assert registry.counter("sanitizer.lock_leak").value == 2
        assert not sanitizer.ok
        assert "lock_leak" in sanitizer.report()

    def test_violation_cap_counts_overflow(self):
        sanitizer = StmSanitizer(max_violations=2)
        for index in range(5):
            sanitizer._violate("lock_leak", None, index, "synthetic")
        assert len(sanitizer.violations) == 2
        assert sanitizer.dropped == 3
        assert "3 more" in sanitizer.report()


class TestExitChecks:
    def _bound(self, variant):
        device = Device(explore_gpu())
        device.mem.alloc(64, "data")
        config = StmConfig(num_locks=16, shared_data_size=64)
        runtime = make_runtime(variant, device, config)
        sanitizer = StmSanitizer().bind(runtime)
        assert runtime.tracer is sanitizer
        assert device.sanitizer is sanitizer
        return device, runtime, sanitizer

    def test_leaked_version_lock_detected(self):
        device, runtime, sanitizer = self._bound("hv-sorting")
        device.mem.write(runtime.lock_table.base + 3, 1)  # locked, version 0
        violations = sanitizer.check_kernel_exit()
        assert [v.check for v in violations] == ["lock_leak"]
        assert "indices 3" in violations[0].detail

    def test_odd_sequence_lock_detected(self):
        device, runtime, sanitizer = self._bound("vbv")
        device.mem.write(runtime.seq_addr, 5)
        violations = sanitizer.check_kernel_exit()
        assert any(v.check == "lock_leak" for v in violations)

    def test_held_cgl_lock_detected(self):
        device, runtime, sanitizer = self._bound("cgl")
        device.mem.write(runtime.lock_addr, 1)
        violations = sanitizer.check_kernel_exit()
        assert any(v.check == "lock_leak" for v in violations)

    def test_clock_disagreement_detected(self):
        device, runtime, sanitizer = self._bound("hv-sorting")
        device.mem.write(runtime.clock.addr, 9)  # 9 ticks, 0 observed commits
        violations = sanitizer.check_kernel_exit()
        assert any(v.check == "clock_monotonicity" for v in violations)

    def test_clean_metadata_passes(self):
        for variant in ("hv-sorting", "vbv", "cgl", "egpgv"):
            _, _, sanitizer = self._bound(variant)
            assert sanitizer.check_kernel_exit() == []
