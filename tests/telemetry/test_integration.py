"""Telemetry against the real simulator: zero-cost invariance, Figure-5
re-derivation, watchdog snapshots, cross-process aggregation."""

import pytest

from repro.gpu import Device, ProgressError
from repro.gpu.config import GpuConfig
from repro.harness import configs
from repro.harness.parallel import JobSpec, merge_job_metrics, run_jobs
from repro.harness.runner import run_workload
from repro.telemetry import MetricRegistry, Telemetry
from repro.telemetry.validate import validate_chrome_trace
from repro.workloads import make_workload

from tests.helpers import explore


def run_pair(workload, variant):
    """The same run with and without telemetry; returns (plain, telemetered, tel)."""
    tel = Telemetry(timeline=True)
    traced = run_workload(
        make_workload(workload, **configs.test_workload_params(workload)),
        variant, configs.unit_gpu(), telemetry=tel,
    )
    plain = run_workload(
        make_workload(workload, **configs.test_workload_params(workload)),
        variant, configs.unit_gpu(),
    )
    return plain, traced, tel


class TestZeroCost:
    @pytest.mark.parametrize("workload,variant", [
        ("ra", "hv-sorting"),
        ("km", "optimized"),
        ("ht", "vbv"),
    ])
    def test_telemetry_does_not_change_cycles(self, workload, variant):
        plain, traced, _tel = run_pair(workload, variant)
        assert traced.cycles == plain.cycles
        assert traced.commits == plain.commits
        assert traced.stats == plain.stats
        for kp, kt in zip(plain.kernel_results, traced.kernel_results):
            assert kt.phases.as_dict() == kp.phases.as_dict()


class TestFigure5Rederivation:
    # the acceptance bar: phase fractions recomputed from the trace alone
    # match the simulator's own accounting within 1e-9 on >= 2 workloads
    @pytest.mark.parametrize("workload", ["gn", "km"])
    def test_trace_phase_fractions_match_simulator(self, workload):
        _plain, traced, tel = run_pair(workload, "optimized")
        for launch, kernel_result in enumerate(traced.kernel_results):
            expected = kernel_result.phases.fractions()
            derived = tel.timeline.phase_fractions(launch=launch)
            for phase, fraction in expected.items():
                assert abs(derived.get(phase, 0.0) - fraction) < 1e-9, (
                    launch, phase,
                )
            # and nothing extra: the trace has no phases the simulator lacks
            for phase in derived:
                assert expected.get(phase, 0.0) > 0.0

    @pytest.mark.parametrize("variant", ["cgl", "vbv", "egpgv"])
    def test_spin_runtimes_rederive_exactly(self, variant):
        """The serialising baselines charge through CAS and through lane
        steppers (exact mode here: every probe is a mirrored ``gread_l2``),
        neither of which the lock-sorting runtimes above exercise."""
        _plain, traced, tel = run_pair("ra", variant)
        expected = traced.kernel_results[0].phases.as_dict()
        derived = tel.timeline.phase_cycles(launch=0)
        assert {p: c for p, c in expected.items() if c} == derived

    def test_phase_cycles_are_integer_exact(self):
        _plain, traced, tel = run_pair("ra", "hv-sorting")
        expected = traced.kernel_results[0].phases.as_dict()
        derived = tel.timeline.phase_cycles(launch=0)
        assert {p: c for p, c in expected.items() if c} == derived


class TestTimelineContent:
    def test_instants_and_tx_slices_present(self):
        _plain, _traced, tel = run_pair("ra", "hv-sorting")
        events = tel.timeline.events()
        instants = {e["name"] for e in events if e.get("cat") == "instant"}
        assert "lock_acquire" in instants
        tx = [e for e in events if e.get("cat") == "tx"]
        outcomes = {e["args"]["outcome"] for e in tx}
        assert "commit" in outcomes
        commits = [e for e in tx if e["args"]["outcome"] == "commit"]
        assert all("version" in e["args"] for e in commits)
        aborts = [e for e in tx if e["args"]["outcome"] == "abort"]
        assert all(e["args"]["reason"] for e in aborts)

    def test_trace_validates_and_counts_match_stats(self):
        _plain, traced, tel = run_pair("km", "optimized")
        assert validate_chrome_trace(tel.timeline.to_chrome_trace()) > 0
        tx = [e for e in tel.timeline.events() if e.get("cat") == "tx"]
        commits = sum(1 for e in tx if e["args"]["outcome"] == "commit")
        aborts = sum(1 for e in tx if e["args"]["outcome"] == "abort")
        assert commits == traced.stats["commits"]
        assert aborts == traced.stats["aborts"]

    def test_runtime_metrics_published(self):
        _plain, traced, tel = run_pair("ra", "hv-sorting")
        counters = tel.registry.counters_dict()
        assert counters["stm.hv_sorting.commits"] == traced.commits
        gauges = tel.registry.gauges_dict()
        assert gauges["stm.hv_sorting.lock_table.num_locks"] > 0
        assert gauges["mem.words"] > 0

    @pytest.mark.parametrize("variant,gauge,expected", [
        ("hv-adaptive", "sorted_fraction",
         lambda c: c("adaptive_sorted")
         / (c("adaptive_sorted") + c("adaptive_unsorted"))),
        ("hv-backoff", "phase2_fraction",
         lambda c: c("backoff_phase2_entries") / c("begins")),
        ("hv-unsorted-nobackoff", "sorting_disabled", lambda c: 1),
    ])
    def test_variant_gauges_published(self, variant, gauge, expected):
        """Each variant's own gauge lands in the registry, derived from
        the counters published beside it.  The strawman may livelock, so
        the runs are captured."""
        tel = Telemetry()
        explore("ra", configs.test_workload_params("ra"), variant,
                telemetry=tel)
        namespace = "stm.%s." % variant.replace("-", "_")
        counters = tel.registry.counters_dict()
        value = tel.registry.gauges_dict()[namespace + gauge]
        assert value == expected(lambda name: counters[namespace + name])

    def test_scheduled_run_feeds_session_tx_events(self):
        """A captured run keeps its own commit/abort ledger in the
        observer slot; the session must still see every commit and
        abort."""
        tel = Telemetry(timeline=True)
        outcome = explore(
            "ra", configs.test_workload_params("ra"), "hv-sorting",
            gpu=configs.unit_gpu(), telemetry=tel,
        )
        assert outcome.ok and outcome.aborts > 0
        tx = [e for e in tel.timeline.events() if e.get("cat") == "tx"]
        commits = [e for e in tx if e["args"]["outcome"] == "commit"]
        aborts = [e for e in tx if e["args"]["outcome"] == "abort"]
        assert len(commits) == outcome.commits
        assert all("version" in e["args"] for e in commits)
        assert aborts and all(e["args"]["reason"] for e in aborts)
        histograms = tel.registry.as_dict()["histograms"]
        assert histograms["stm.tx.read_set"]["count"] == outcome.commits
        assert "stm.tx.write_set" in histograms
        assert outcome.ledger_rows  # the outcome's own ledger still fills


class TestWatchdogSnapshot:
    def test_snapshot_gauges_survive_merge_roundtrip(self):
        from repro.stm.runtime.unsorted import (
            UnsortedNoBackoffRuntime,
            crossed_order_kernel,
        )

        tel = Telemetry()
        device = Device(
            GpuConfig(warp_size=2, num_sms=1, max_steps=40_000), telemetry=tel
        )
        data = device.mem.alloc(8, "data")
        runtime = UnsortedNoBackoffRuntime(device, num_locks=8)
        with pytest.raises(ProgressError):
            device.launch(
                crossed_order_kernel(data, 1), 1, 2, attach=runtime.attach
            )
        gauges = tel.registry.gauges_dict()
        for field in ("pending_blocks", "resident_blocks", "resident_warps",
                      "cycles"):
            assert "watchdog.sm.0.%s" % field in gauges
        assert tel.registry.counters_dict()["watchdog.trips"] == 1

        # satellite: the snapshot fields survive serialization + merge
        merged = MetricRegistry()
        merged.merge(MetricRegistry.from_dict(tel.registry.as_dict()))
        assert merged.gauges_dict() == gauges
        assert merged.counters_dict()["watchdog.trips"] == 1


class TestCrossProcessAggregation:
    def test_four_worker_sweep_sums_counters(self, tmp_path):
        specs = [
            JobSpec((name, "hv-sorting"), name,
                    configs.test_workload_params(name), "hv-sorting",
                    gpu_overrides=dict(num_sms=2), telemetry=True)
            for name in ("ra", "ht", "eb", "km")
        ]
        results = run_jobs(specs, jobs=4)
        workers = []
        for result in results:
            assert not result.failed, result.error
            assert result.metrics is not None
            workers.append(MetricRegistry.from_dict(result.metrics))
        merged = merge_job_metrics(results)
        names = {n for w in workers for n in w.counters_dict()}
        for name in names:
            assert merged.counters_dict()[name] == sum(
                w.counters_dict().get(name, 0) for w in workers
            )
        assert merged.counters_dict()["runs.completed"] == len(specs)

    def test_timeline_dir_writes_valid_traces(self, tmp_path):
        import json
        import os

        spec = JobSpec(("ra", "opt"), "ra", configs.test_workload_params("ra"),
                       "optimized", gpu_overrides=dict(num_sms=2),
                       timeline_dir=str(tmp_path))
        result, = run_jobs([spec], jobs=1)
        assert not result.failed, result.error
        assert result.metrics is not None  # timeline_dir implies telemetry
        assert os.path.exists(result.trace_path)
        with open(result.trace_path) as handle:
            assert validate_chrome_trace(json.load(handle)) > 0
