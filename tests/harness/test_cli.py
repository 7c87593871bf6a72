"""The `python -m repro.harness` command-line interface."""

import json
import os

import pytest

from repro.harness import configs
from repro.harness.__main__ import TARGETS, main
from repro.telemetry.validate import validate_chrome_trace, validate_metrics


class TestCli:
    def test_targets_cover_every_artifact(self):
        assert set(TARGETS) == {"table1", "table2", "fig2", "fig3", "fig4", "fig5"}

    def test_unknown_target_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig9"])

    @pytest.mark.slow
    def test_fig5_quick_end_to_end(self, capsys):
        assert main(["fig5", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out
        assert "regenerated" in out

    def test_fuzz_clean_variant_exits_zero(self, capsys):
        assert main([
            "fuzz", "--workload", "ra", "--variant", "hv-sorting",
            "--seeds", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "fuzz ra/hv-sorting" in out
        assert "0 failing" in out

    def test_fuzz_accepts_explicit_policies(self, capsys):
        assert main([
            "fuzz", "--workload", "ra", "--variant", "cgl",
            "--seeds", "1", "--policy", "rr", "--policy", "greedy:4",
        ]) == 0
        out = capsys.readouterr().out
        assert "2 schedules" in out

    def test_bad_jobs_rejected(self):
        with pytest.raises(SystemExit):
            main(["fuzz", "--jobs", "0"])

    @pytest.mark.parametrize("flags", [
        ["--timeout", "0"], ["--timeout", "-1"], ["--timeout", "nan"],
        ["--retries", "-3"],
    ])
    def test_bad_timeout_or_retries_is_a_usage_error(self, flags, monkeypatch):
        from repro.harness import __main__ as cli

        def must_not_run(**kwargs):
            raise AssertionError("a bad flag must stop the CLI before the sweep")

        monkeypatch.setitem(cli.TARGETS, "fig5", must_not_run)
        with pytest.raises(SystemExit) as exc:
            main(["fig5", "--quick", "--jobs", "2"] + flags)
        assert exc.value.code == 2

    def test_experiment_argument_requires_trace_target(self):
        with pytest.raises(SystemExit):
            main(["fig2", "ra"])

    def test_trace_requires_experiment(self):
        with pytest.raises(SystemExit):
            main(["trace"])

    def test_trace_rejects_unknown_experiment(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["trace", "nope", "--out", str(tmp_path)])

    def test_trace_workload_writes_valid_artifacts(self, tmp_path, capsys):
        out = os.path.join(str(tmp_path), "artifacts")
        assert main([
            "trace", "ra", "--quick", "--variant", "hv-sorting", "--out", out,
        ]) == 0
        trace_path = os.path.join(out, "ra-hv-sorting.trace.json")
        with open(trace_path) as handle:
            assert validate_chrome_trace(json.load(handle)) > 0
        with open(os.path.join(out, "metrics.json")) as handle:
            assert validate_metrics(json.load(handle)) > 0
        assert "artifacts in" in capsys.readouterr().out

    def test_trace_workload_uses_the_figures_lock_table(self, tmp_path,
                                                        capsys):
        """A single-workload trace runs on the lock table every figure
        cell uses, so its words-per-lock ratio matches the figures'."""
        out = os.path.join(str(tmp_path), "artifacts")
        assert main([
            "trace", "ra", "--quick", "--variant", "hv-sorting", "--out", out,
        ]) == 0
        with open(os.path.join(out, "metrics.json")) as handle:
            gauges = json.load(handle)["gauges"]
        assert (gauges["stm.hv_sorting.lock_table.num_locks"]
                == configs.DEFAULT_NUM_LOCKS)

    @pytest.mark.slow
    def test_trace_figure_sweep_writes_per_run_traces(self, tmp_path, capsys):
        out = os.path.join(str(tmp_path), "fig5")
        metrics = os.path.join(str(tmp_path), "m.json")
        assert main([
            "trace", "fig5", "--quick", "--out", out, "--metrics", metrics,
        ]) == 0
        traces = [f for f in os.listdir(out) if f.endswith(".trace.json")]
        assert len(traces) == 3  # gn, lb, km
        with open(metrics) as handle:
            data = json.load(handle)
        assert validate_metrics(data) > 0
        assert data["counters"]["runs.completed"] == 3
        assert "Figure 5" in capsys.readouterr().out

    def test_metrics_flag_on_figure_target(self, tmp_path, capsys, monkeypatch):
        # keep it cheap: patch the target to a stub that still exercises the
        # registry-threading contract of the figure loop
        from repro.harness import __main__ as cli

        class StubResult:
            def render(self):
                return "stub"

        def stub_target(quick=False, jobs=None, metrics=None, timeline_dir=None):
            metrics.add("stub.runs")
            return StubResult()

        monkeypatch.setitem(cli.TARGETS, "fig2", stub_target)
        path = os.path.join(str(tmp_path), "metrics.json")
        assert main(["fig2", "--quick", "--metrics", path]) == 0
        with open(path) as handle:
            assert json.load(handle)["counters"] == {"stub.runs": 1}

    def test_fuzz_metrics_counters(self, tmp_path, capsys):
        path = os.path.join(str(tmp_path), "fuzz.json")
        assert main([
            "fuzz", "--workload", "ra", "--variant", "hv-sorting",
            "--seeds", "1", "--metrics", path,
        ]) == 0
        with open(path) as handle:
            data = json.load(handle)
        assert data["counters"]["fuzz.ra.hv_sorting.schedules"] > 0
        assert data["counters"]["fuzz.ra.hv_sorting.failures"] == 0


class TestResilienceFlags:
    def test_sweep_failures_exit_nonzero_with_summary(self, capsys, monkeypatch):
        from repro.harness import __main__ as cli
        from repro.harness.parallel import JobFailure

        class StubResult:
            failures = [JobFailure(("ra", "vbv"), "livelock", "LivelockError",
                                   "watchdog tripped", attempts=1)]

            def render(self):
                return "stub"

        def stub_target(quick=False, jobs=None, metrics=None,
                        timeline_dir=None):
            return StubResult()

        monkeypatch.setitem(cli.TARGETS, "fig2", stub_target)
        assert main(["fig2", "--quick"]) == 1
        err = capsys.readouterr().err
        assert "1 job(s) failed" in err
        assert "livelock" in err

    def test_retries_and_resume_flags_reach_the_driver(self, tmp_path,
                                                       capsys, monkeypatch):
        from repro.harness import __main__ as cli
        from repro.harness.supervisor import SupervisorConfig

        seen = {}

        class StubResult:
            def render(self):
                return "stub"

        def stub_target(quick=False, jobs=None, metrics=None,
                        timeline_dir=None, supervise=None, journal=None):
            seen.update(supervise=supervise, journal=journal)
            return StubResult()

        monkeypatch.setitem(cli.TARGETS, "fig2", stub_target)
        path = os.path.join(str(tmp_path), "sweep.journal")
        assert main(["fig2", "--quick", "--retries", "3",
                     "--timeout", "7.5", "--resume", path]) == 0
        assert isinstance(seen["supervise"], SupervisorConfig)
        assert seen["supervise"].max_retries == 3
        assert seen["supervise"].wall_timeout == 7.5
        assert seen["journal"] == path

    def test_multi_target_resume_journals_per_target(self, tmp_path,
                                                     capsys, monkeypatch):
        from repro.harness import __main__ as cli

        journals = {}

        class StubResult:
            def render(self):
                return "stub"

        def make_stub(name):
            def stub_target(quick=False, jobs=None, metrics=None,
                            timeline_dir=None, supervise=None, journal=None):
                journals[name] = journal
                return StubResult()
            return stub_target

        for name in cli.TARGETS:
            monkeypatch.setitem(cli.TARGETS, name, make_stub(name))
        path = os.path.join(str(tmp_path), "sweep.journal")
        assert main(["all", "--quick", "--resume", path]) == 0
        assert journals["fig2"] == "%s.fig2" % path
        assert journals["fig5"] == "%s.fig5" % path
        assert len(set(journals.values())) == len(cli.TARGETS)

    def test_chaos_is_an_accepted_target(self, capsys, monkeypatch):
        from repro.harness import __main__ as cli

        calls = {}

        def stub_chaos(jobs=2, out_dir="x", wall_timeout=20.0, kill_after=2):
            class Report:
                ok = True

                def render(self):
                    return "chaos stub"
            calls.update(jobs=jobs, out_dir=out_dir, wall_timeout=wall_timeout)
            return Report()

        import repro.harness.chaos as chaos_mod
        monkeypatch.setattr(chaos_mod, "run_chaos", stub_chaos)
        assert main(["chaos", "--jobs", "3", "--out", "somewhere",
                     "--timeout", "5"]) == 0
        assert calls == dict(jobs=3, out_dir="somewhere", wall_timeout=5.0)
        assert "chaos stub" in capsys.readouterr().out
