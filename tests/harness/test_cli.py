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

    def test_fuzz_clean_variant_exits_zero(self, tmp_path, capsys):
        assert main([
            "fuzz", "--workload", "ra", "--variant", "hv-sorting",
            "--seeds", "1", "--out", str(tmp_path),
        ]) == 0
        assert capsys.readouterr().out.splitlines()[:2] == [
            "fuzz ra/hv-sorting: 2 schedules, 0 failing",
            "  all histories strictly serializable "
            "(128 commits, 128 oracle-checked)",
        ]
        summary = json.loads((tmp_path / "fuzz_summary.json").read_text())
        assert summary["ok"] is True
        assert sorted(os.listdir(str(tmp_path))) == [
            "fuzz_summary.json", "run_info.json"]

    def test_fuzz_accepts_explicit_policies(self, tmp_path, capsys):
        assert main([
            "fuzz", "--workload", "ra", "--variant", "cgl",
            "--seeds", "1", "--policy", "rr", "--policy", "random:4:8",
            "--out", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "2 schedules" in out

    def test_fuzz_violation_exits_one_with_artifacts(self, tmp_path,
                                                     monkeypatch, capsys):
        """A seeded bug the fuzzer catches: exit 1, the shrunk failures in
        the text, their artifacts and counters under ``--out``."""
        import functools

        from repro.sched import fuzz

        monkeypatch.setattr(fuzz, "fuzz_schedules", functools.partial(
            fuzz.fuzz_schedules, mutant="skip-revalidation"))
        metrics = str(tmp_path / "m.json")
        assert main([
            "fuzz", "--variant", "hv-sorting", "--seeds", "2", "--policy",
            "random", "--out", str(tmp_path), "--metrics", metrics,
        ]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "fuzz ra/hv-sorting: 2 schedules, 2 failing"
        assert lines.count("  shrunk to 1 decisions in 11 replays") == 2
        assert len(os.listdir(str(tmp_path))) == 2 * 3 + 3
        with open(metrics) as handle:
            counters = json.load(handle)["counters"]
        assert counters["fuzz.ra.hv_sorting.failures"] == 2
        assert counters["fuzz.ra.hv_sorting.schedules"] == 2

    def test_fuzz_errored_cell_fails_the_run(self, tmp_path, monkeypatch,
                                             capsys):
        """An errored cell is never a pass: roster on stderr, exit 1."""
        monkeypatch.setattr(configs, "test_workload_params",
                            lambda name: {"bogus": 1})
        assert main(["fuzz", "--variant", "cgl", "--seeds", "1",
                     "--policy", "random", "--out", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert "strictly serializable" not in captured.out
        assert "1 job(s) failed" in captured.err
        assert "'ra/cgl/random:0'" in captured.err

    def test_fuzz_sweep_resumes_from_its_journal(self, tmp_path, capsys):
        argv = ["fuzz", "--variant", "all", "--seeds", "1", "--policy",
                "random", "--jobs", "2", "--resume", str(tmp_path / "j"),
                "--metrics", str(tmp_path / "m.json"), "--out"]
        summaries = []
        for out in ("first", "second"):
            assert main(argv + [str(tmp_path / out)]) == 0
            summaries.append((tmp_path / out / "fuzz_summary.json").read_bytes())
        assert summaries[0] == summaries[1]
        with open(str(tmp_path / "m.json")) as handle:
            counters = json.load(handle)["counters"]
        assert counters.get("supervisor.jobs.executed", 0) == 0
        assert counters["supervisor.jobs.resumed"] == 7

    @pytest.mark.parametrize("argv", [
        ["fuzz", "--seeds", "0"], ["fuzz", "--seeds", "-3"],
        ["inject", "--checkers", "fuzzer", "--seeds", "0"],
        ["fuzz", "--variant", "bogus"], ["sanitize", "--variant", "bogus"],
        ["trace", "ra", "--variant", "bogus"],
        ["fuzz", "--workload", "bogus"], ["sanitize", "--workload", "bogus"],
        ["inject", "--mutants", "bogus"],
    ], ids=["fuzz-seeds0", "fuzz-seeds-3", "inject-seeds0", "fuzz-variant",
            "sanitize-variant", "trace-variant", "fuzz-workload",
            "sanitize-workload", "inject-mutants"])
    def test_bad_names_and_seeds_are_usage_errors(self, argv, monkeypatch,
                                                  capsys):
        """Rejected before any cell runs (no executor is entered)."""
        from repro.harness import __main__ as cli
        from repro.harness import sweep

        def must_not_run(*args, **kwargs):
            raise AssertionError("a bad flag must stop the CLI first")

        monkeypatch.setattr(sweep, "run_jobs", must_not_run)
        monkeypatch.setattr(cli, "_trace_workload", must_not_run)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "bogus" in err or "--seeds must be >= 1" in err

    def test_bad_jobs_rejected(self):
        with pytest.raises(SystemExit):
            main(["fuzz", "--jobs", "0"])

    @pytest.mark.parametrize("flags", [
        ["--timeout", "0"], ["--timeout", "-1"], ["--timeout", "nan"],
        ["--retries", "-3"],
    ])
    def test_bad_timeout_or_retries_is_a_usage_error(self, flags, monkeypatch):
        from repro.harness import __main__ as cli

        def must_not_run(name, **kwargs):
            raise AssertionError("a bad flag must stop the CLI before the sweep")

        monkeypatch.setattr(cli, "run_figure", must_not_run)
        with pytest.raises(SystemExit) as exc:
            main(["fig5", "--quick", "--jobs", "2"] + flags)
        assert exc.value.code == 2

    @pytest.mark.parametrize("jobs", [["--jobs", "1"], []])
    def test_timeout_with_one_worker_is_a_usage_error(self, jobs, monkeypatch,
                                                      capsys):
        """One worker runs cells in-process, where a timeout cannot stop
        them; the worker count includes ``$REPRO_JOBS``."""
        from repro.harness import __main__ as cli

        def must_not_run(name, **kwargs):
            raise AssertionError("an ignored flag must stop the CLI first")

        monkeypatch.setattr(cli, "run_figure", must_not_run)
        monkeypatch.setenv("REPRO_JOBS", "1")
        with pytest.raises(SystemExit) as exc:
            main(["fig5", "--quick", "--timeout", "5"] + jobs)
        assert exc.value.code == 2
        assert "--timeout needs --jobs 2" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["-5", "abc"])
    @pytest.mark.parametrize("argv", [
        ["fig5", "--quick"], ["fuzz", "--variant", "cgl"],
        ["trace", "fig5", "--quick"], ["sanitize"], ["service"], ["multigpu"],
        ["byz"], ["reproduce", "--smoke"],
    ], ids=lambda argv: argv[0])
    def test_malformed_repro_jobs_is_a_usage_error(self, argv, value,
                                                   monkeypatch, capsys,
                                                   tmp_path):
        """Every CLI that defaults ``--jobs`` to ``$REPRO_JOBS`` rejects a
        value ``--jobs`` would reject, naming the variable, before any
        cell runs."""
        from repro.__main__ import main as repro_main

        monkeypatch.setenv("REPRO_JOBS", value)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            repro_main(argv)
        assert exc.value.code == 2
        assert "REPRO_JOBS must be an integer >= 1" in capsys.readouterr().err
        assert os.listdir(str(tmp_path)) == []

    @pytest.mark.parametrize("argv,runner,flags", [
        (["trace", "fig5", "--quick"], "run_trace",
         {"--resume": "j", "--retries": "1", "--timeout": "5",
          "--expdb": "e.sqlite"}),
        (["inject"], "run_inject", {"--variant": "cgl", "--policy": "rr"}),
        (["sanitize", "--variant", "cgl"], "run_sanitize",
         {"--seeds": "1", "--policy": "rr"}),
        (["fig5", "--quick", "--jobs", "1"], "run_figure",
         {"--seeds": "3", "--workload": "km"}),
        (["fuzz"], "run_fuzz", {"--mutants": "x", "--checkers": "y"}),
    ], ids=["trace", "inject", "sanitize", "fig5", "fuzz"])
    def test_sweep_flags_a_target_ignores_are_usage_errors(
            self, argv, runner, flags, monkeypatch, capsys):
        """Each target declares only the flags it reads; any other is
        rejected before the target runs, by name."""
        from repro.harness import __main__ as cli

        def must_not_run(*args, **kwargs):
            raise AssertionError("an ignored flag must stop the CLI first")

        monkeypatch.setattr(cli, runner, must_not_run)
        for flag, value in flags.items():
            with pytest.raises(SystemExit) as exc:
                main(argv + [flag, value])
            assert exc.value.code == 2
            assert flag in capsys.readouterr().err

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
            failures = ()

            def render(self):
                return "stub"

        def stub_figure(name, quick=False, jobs=None, metrics=None, **sweep):
            metrics.add("stub.runs")
            return StubResult()

        monkeypatch.setattr(cli, "run_figure", stub_figure)
        path = os.path.join(str(tmp_path), "metrics.json")
        assert main(["fig2", "--quick", "--metrics", path]) == 0
        with open(path) as handle:
            assert json.load(handle)["counters"] == {"stub.runs": 1}

    def test_fuzz_metrics_counters(self, tmp_path, capsys):
        path = os.path.join(str(tmp_path), "fuzz.json")
        assert main([
            "fuzz", "--workload", "ra", "--variant", "hv-sorting",
            "--seeds", "1", "--jobs", "1", "--metrics", path,
            "--out", str(tmp_path),
        ]) == 0
        with open(path) as handle:
            data = json.load(handle)
        # the executor counts every sweep, retries or not
        assert data["counters"] == {
            "fuzz.ra.hv_sorting.commits": 128,
            "fuzz.ra.hv_sorting.failures": 0,
            "fuzz.ra.hv_sorting.schedules": 2,
            "supervisor.attempts": 2,
            "supervisor.first_attempt_successes": 2,
            "supervisor.jobs.executed": 2,
            "supervisor.jobs.succeeded": 2,
            "supervisor.jobs.total": 2,
        }

    @pytest.mark.parametrize("target", ["fuzz", "sanitize"])
    def test_fuzz_and_sanitize_take_the_sweep_flags(self, target, tmp_path,
                                                    capsys):
        """Both run on the shared sweep front-end: retried, journaled and
        recorded like any other sweep."""
        from repro.expdb import ExperimentDB

        db = str(tmp_path / "e.sqlite")
        assert main([target, "--variant", "cgl", "--retries", "1", "--resume", str(tmp_path / "j"),
                     "--expdb", db, "--out", str(tmp_path)]) == 0
        assert len(ExperimentDB(db).runs(experiment=target)) == 1

    def test_sanitize_run_info_times_every_cell(self, tmp_path, capsys):
        """``run_info.json`` holds each cell's wall time, measured where
        every executor runs its body."""
        assert main(["sanitize", "--variant", "all", "--out",
                     str(tmp_path)]) == 0
        cells = json.loads((tmp_path / "run_info.json").read_text())["cells"]
        assert len(cells) == 7
        assert all(cell["wall_seconds"] > 0 for cell in cells.values())


class TestResilienceFlags:
    def test_sweep_failures_exit_nonzero_with_summary(self, capsys, monkeypatch):
        from repro.harness import __main__ as cli
        from repro.harness.parallel import JobFailure

        class StubResult:
            failures = [JobFailure(("ra", "vbv"), "livelock", "LivelockError",
                                   "watchdog tripped", attempts=1)]

            def render(self):
                return "stub"

        def stub_figure(name, quick=False, jobs=None, metrics=None, **sweep):
            return StubResult()

        monkeypatch.setattr(cli, "run_figure", stub_figure)
        assert main(["fig2", "--quick"]) == 1
        err = capsys.readouterr().err
        assert "1 job(s) failed" in err
        assert "livelock" in err

    def test_retries_and_resume_flags_reach_the_driver(self, tmp_path,
                                                       capsys, monkeypatch):
        from repro.harness import __main__ as cli

        seen = {}

        class StubResult:
            failures = ()

            def render(self):
                return "stub"

        def stub_figure(name, quick=False, jobs=None, metrics=None,
                        retries=0, timeout=None, journal=None, recorder=None):
            seen.update(retries=retries, timeout=timeout, journal=journal)
            return StubResult()

        monkeypatch.setattr(cli, "run_figure", stub_figure)
        path = os.path.join(str(tmp_path), "sweep.journal")
        assert main(["fig2", "--quick", "--jobs", "2", "--retries", "3",
                     "--timeout", "7.5", "--resume", path]) == 0
        assert seen == dict(retries=3, timeout=7.5, journal=path)

    def test_multi_target_resume_journals_per_target(self, tmp_path,
                                                     capsys, monkeypatch):
        from repro.harness import __main__ as cli

        journals = {}

        class StubResult:
            failures = ()

            def render(self):
                return "stub"

        def stub_figure(name, quick=False, jobs=None, metrics=None,
                        retries=0, timeout=None, journal=None, recorder=None):
            journals[name] = journal
            return StubResult()

        monkeypatch.setattr(cli, "run_figure", stub_figure)
        path = os.path.join(str(tmp_path), "sweep.journal")
        assert main(["all", "--quick", "--resume", path]) == 0
        assert journals["fig2"] == "%s.fig2" % path
        assert journals["fig5"] == "%s.fig5" % path
        assert len(set(journals.values())) == len(cli.TARGETS)

    @pytest.mark.parametrize("text", [
        "meeting notes\n",
        json.dumps({"kind": "header", "version": 99}) + "\n",
    ], ids=["not-a-journal", "other-version"])
    @pytest.mark.parametrize("argv,journal", [
        (["sanitize", "--variant", "cgl", "--resume", "notes.txt"],
         "notes.txt"),
        (["all", "--quick", "--resume", "notes.txt"], "notes.txt.fig2"),
        (["reproduce", "--smoke", "--targets", "fig2", "--out", "bundle",
          "--db", "x.sqlite"], os.path.join("bundle", "journals",
                                            "fig2.journal")),
    ], ids=["resume", "all", "reproduce"])
    def test_a_journal_path_holding_no_journal_is_refused(
            self, argv, journal, text, monkeypatch, tmp_path, capsys):
        """Every sweep CLI refuses to resume from, or append to, a file
        that is not a journal of this build: one line naming the path,
        exit 2, the file untouched."""
        from repro.__main__ import main as repro_main

        monkeypatch.chdir(tmp_path)
        os.makedirs(os.path.dirname(journal) or ".", exist_ok=True)
        with open(journal, "w") as handle:
            handle.write(text)
        assert repro_main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and journal in err
        with open(journal) as handle:
            assert handle.read() == text

    def test_chaos_is_not_a_target(self, capsys):
        """The executor's self-test is a tier-1 test, not a CLI target."""
        from repro.__main__ import main as repro_main

        with pytest.raises(SystemExit) as exc:
            main(["chaos"])
        assert exc.value.code == 2
        assert repro_main(["chaos"]) == 2
        assert "unknown subcommand 'chaos'" in capsys.readouterr().err
