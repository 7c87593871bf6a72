"""Runner and experiment-driver tests at tiny geometries."""

import pytest

from repro.gpu.errors import LivelockError
from repro.harness.configs import (
    bench_workload_params,
    egpgv_workload_params,
    explore_gpu,
    test_workload_params as tiny_params,
    unit_gpu,
)
from repro.harness.runner import run_workload
from repro.stm import EXTENSION_VARIANTS, STM_VARIANTS
from repro.stm.errors import EgpgvCapacityError
from repro.workloads import make_workload


class TestRaiseAndCaptureAgree:
    """Raise mode (the figures) and capture mode (exploration) are one run
    path: on the same geometry under round robin they must observe the
    same run — the same cycles, steps, commits and aborts and an
    oracle-clean history, or, for the section 2.2 strawman that
    livelocks, the same watchdog trip raised in one mode and recorded in
    the other."""

    @pytest.mark.parametrize("variant", STM_VARIANTS + EXTENSION_VARIANTS)
    def test_modes_agree(self, variant):
        def run(capture):
            workload = make_workload("ra", **tiny_params("ra"))
            result = run_workload(
                workload, variant, explore_gpu(max_steps=200_000), "rr",
                num_locks=16, check_oracle=True, capture=capture,
            )
            return workload, result

        _, captured = run(True)
        if variant == "hv-unsorted-nobackoff":
            with pytest.raises(LivelockError) as raised:
                run(False)
            assert (captured.failure, captured.livelock) == ("progress", True)
            assert captured.steps == raised.value.steps
            return
        workload, raised = run(False)
        assert captured.ok, captured.detail
        assert raised.ok
        for result in (raised, captured):
            assert result.workload == "ra"
            assert result.variant == variant
            assert result.policy == "rr"
            assert result.checked > 0, "the oracle must replay the history"
            assert result.commits == workload.expected_commits()
            assert 0 <= result.tx_time_fraction <= 1
        assert raised.cycles > 0
        assert (captured.cycles, captured.steps, captured.commits,
                captured.aborts) == (raised.cycles, raised.steps,
                                     raised.commits, raised.aborts)
        assert captured.checked == raised.checked
        assert captured.final_words and raised.final_words is None


class TestRunWorkload:
    def test_commit_count_mismatch_detected(self):
        workload = make_workload("ra", **tiny_params("ra"))
        workload.expected_commits = lambda: 999999  # sabotage
        with pytest.raises(AssertionError, match="commit"):
            run_workload(workload, "hv-sorting", unit_gpu(), num_locks=64)

    def test_egpgv_crash_propagates_without_allow(self):
        workload = make_workload("ra", **tiny_params("ra"))
        with pytest.raises(EgpgvCapacityError):
            run_workload(
                workload,
                "egpgv",
                unit_gpu(),
                num_locks=64,
                stm_overrides={"egpgv_max_blocks": 1},
            )

    def test_egpgv_crash_recorded_with_allow(self):
        workload = make_workload("ra", **tiny_params("ra"))
        result = run_workload(
            workload,
            "egpgv",
            unit_gpu(),
            num_locks=64,
            stm_overrides={"egpgv_max_blocks": 1},
            allow_crash=True,
        )
        assert result.crashed
        assert "block" in result.crash_reason

    def test_recorded_run_stores_its_schedule_once(self):
        """A recorded run's schedule lives in ``traces`` alone: no launch
        result keeps a second copy, so a recorded cell ships and journals
        it once."""
        result = run_workload(
            make_workload("ra", **tiny_params("ra")), "hv-sorting",
            explore_gpu(), "random:0", num_locks=16, capture=True,
            record=True,
        )
        assert result.ok and result.traces and result.kernel_results
        assert len(result.traces) == len(result.kernel_results)
        assert [k.schedule_trace for k in result.kernel_results] == \
            [None] * len(result.kernel_results)
        replayed = run_workload(
            make_workload("ra", **tiny_params("ra")), "hv-sorting",
            explore_gpu(), result.replay_policies(), num_locks=16,
            capture=True,
        )
        assert (replayed.cycles, replayed.steps) == (result.cycles,
                                                     result.steps)

    def test_locklog_comparisons_surfaced(self):
        workload = make_workload("ra", **tiny_params("ra"))
        result = run_workload(workload, "hv-sorting", unit_gpu(), num_locks=64)
        assert result.stats["locklog_comparisons"] >= 0


class TestConfigs:
    def test_bench_params_exist_for_all(self):
        for name in ("ra", "ht", "eb", "lb", "gn", "km", "lg"):
            assert bench_workload_params(name)
            assert tiny_params(name)

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError):
            bench_workload_params("nope")
        with pytest.raises(ValueError):
            tiny_params("nope")

    def test_egpgv_params_preserve_total_work(self):
        for name in ("ra", "ht", "eb"):
            base = bench_workload_params(name)
            folded = egpgv_workload_params(name)
            base_total = base["grid"] * base["block"] * base["txs_per_thread"]
            folded_total = folded["grid"] * folded["block"] * folded["txs_per_thread"]
            assert folded_total == base_total
            assert folded["grid"] <= 4

    def test_egpgv_params_lb_paths_preserved(self):
        base = bench_workload_params("lb")
        folded = egpgv_workload_params("lb")
        assert (
            base["grid_blocks"] * base["paths_per_router"]
            == folded["grid_blocks"] * folded["paths_per_router"]
        )

    def test_egpgv_params_gn_segments_preserved(self):
        base = bench_workload_params("gn")
        folded = egpgv_workload_params("gn")
        base_total = base["grid"] * base["block"] * base["segments_per_thread"]
        folded_total = folded["grid"] * folded["block"] * folded["segments_per_thread"]
        assert base_total == folded_total
