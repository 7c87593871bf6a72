"""Campaign driver: matrix shape, parallel determinism, CLI exit codes."""

import dataclasses
import json

import pytest

from repro.faults.campaign import (
    CHECKERS,
    _campaign_cells,
    _matrix_cell,
    render_matrix,
    run_campaign,
)
from repro.harness import configs
from repro.harness.journal import spec_fingerprint
from repro.sched.fuzz import ExploreCell, execute_explore, fuzz_schedules

FAST_MUTANTS = ["clock-stuck", "missing-writeback-fence"]


@pytest.fixture(scope="module")
def sanitizer_matrix():
    return run_campaign(mutants=FAST_MUTANTS, checkers=("sanitizer",),
                        jobs=1).summary


class TestRunCampaign:
    def test_matrix_shape(self, sanitizer_matrix):
        matrix = sanitizer_matrix
        assert matrix["checkers"] == ["sanitizer"]
        assert sorted(matrix["mutants"]) == sorted(FAST_MUTANTS)
        entry = matrix["mutants"]["clock-stuck"]
        assert entry["variants"] == ["hv-backoff"]
        cell = entry["results"]["hv-backoff"]["sanitizer"]
        assert cell["detected"] is True
        assert cell["error"] is None
        # both covered variants got a clean baseline
        assert sorted(matrix["baselines"]) == ["hv-backoff", "optimized"]

    def test_mutants_caught_and_baselines_clean(self, sanitizer_matrix):
        matrix = sanitizer_matrix
        assert matrix["ok"] is True
        for entry in matrix["mutants"].values():
            assert entry["detected"] is True
        for cell in matrix["baselines"].values():
            assert not any(r["detected"] for r in cell.values())

    def test_parallel_equals_serial(self, sanitizer_matrix):
        parallel = run_campaign(
            mutants=FAST_MUTANTS, checkers=("sanitizer",), jobs=2,
        ).summary
        assert parallel == sanitizer_matrix

    def test_matrix_is_json_serializable(self, sanitizer_matrix):
        assert json.loads(json.dumps(sanitizer_matrix)) == sanitizer_matrix

    def test_render_matrix(self, sanitizer_matrix):
        text = render_matrix(sanitizer_matrix)
        assert "clock-stuck" in text
        assert "matrix ok: yes" in text
        assert "baselines clean" in text

    def test_undetected_mutant_fails_matrix(self, sanitizer_matrix):
        # simulate a checker that misses a mutant
        crippled = json.loads(json.dumps(sanitizer_matrix))
        cell = crippled["mutants"]["clock-stuck"]["results"]["hv-backoff"]
        cell["sanitizer"]["detected"] = False
        crippled["mutants"]["clock-stuck"]["detected"] = False
        crippled["ok"] = False
        assert "NO" in render_matrix(crippled)

    def test_rejects_unknown_mutant(self):
        with pytest.raises(ValueError, match="unknown mutant"):
            run_campaign(mutants=["no-such-bug"])

    def test_rejects_unknown_checker(self):
        with pytest.raises(ValueError, match="unknown checker"):
            run_campaign(mutants=FAST_MUTANTS, checkers=("vibes",))


class TestExecuteCampaignJob:
    """The campaign's cells are captured-run cells; the reduce folds each
    (mutant, variant, checker) group into one matrix cell."""

    def test_fuzzer_checker_on_schedule_dependent_bug(self):
        # the one mutant only the fuzzer catches (begin-time snapshot bug):
        # one cell per random/adversarial seed
        groups, cells = _campaign_cells(["vbv-snapshot-off-by-one"],
                                        ["fuzzer"], "ra", 2, False)
        ((name, variant, checker, group),) = groups
        assert (name, variant, checker) == (
            "vbv-snapshot-off-by-one", "vbv", "fuzzer")
        assert group == cells
        assert [spec.key for spec in cells] == [
            "vbv-snapshot-off-by-one/vbv/fuzzer/%s" % policy for policy in (
                "random:0", "random:1", "adversarial:0", "adversarial:1")]
        assert not any(spec.sanitize for spec in cells)
        cell = _matrix_cell(name, variant, checker,
                            [execute_explore(spec) for spec in cells])
        assert cell["error"] is None
        assert cell["detected"] is True
        assert cell["detail"].startswith("serializability: ")

    def test_worker_never_raises(self):
        job = ExploreCell("no-such-workload", {}, "vbv", "rr",
                          key="baseline/vbv/oracle")
        result = execute_explore(job)
        assert result.failed
        cell = _matrix_cell(None, "vbv", "oracle", [result])
        assert "no-such-workload" in cell["error"]
        assert cell["detected"] is True  # poisons ok instead of vanishing

    def test_job_is_picklable(self):
        import pickle

        (_group,), (job,) = _campaign_cells(["clock-stuck"], ["sanitizer"],
                                            "ra", 2, False)
        clone = pickle.loads(pickle.dumps(job))
        assert clone.mutant == job.mutant == "clock-stuck"
        assert clone.sanitize
        assert clone.params == job.params
        assert spec_fingerprint(clone) == spec_fingerprint(job)


class TestNoGridRecords:
    """A captured cell carries only what its sweep's reduce reads: no
    grid records a schedule (the fuzzer re-runs a failing cell to record
    one), and the cell has no field asking it to."""

    def test_cells_ship_no_schedule(self):
        assert "record" not in {f.name for f in dataclasses.fields(ExploreCell)}
        campaign = run_campaign(mutants=["clock-stuck"], checkers=CHECKERS,
                                seeds=1)
        fuzz = fuzz_schedules("ra", configs.test_workload_params("ra"),
                              ["hv-sorting"], seeds=1, policies=("random",),
                              mutant="skip-revalidation", shrink_budget=0)
        results = campaign.results + fuzz.results
        assert not any(result.failed for result in results)
        assert any(not result.run.ok for result in fuzz.results)
        assert [result.run.traces for result in results] == \
            [[]] * len(results)


class TestCli:
    def test_inject_writes_matrix_and_exits_zero(self, tmp_path, capsys):
        from repro.harness.__main__ import main

        code = main([
            "inject", "--mutants", "clock-stuck", "--checkers", "sanitizer",
            "--jobs", "1", "--out", str(tmp_path),
        ])
        assert code == 0
        matrix = json.loads((tmp_path / "efficacy_matrix.json").read_text())
        assert matrix["ok"] is True
        assert "matrix ok: yes" in capsys.readouterr().out

    def test_inject_rejects_unknown_mutant(self, tmp_path, capsys):
        from repro.harness.__main__ import main

        with pytest.raises(SystemExit) as exc:
            main(["inject", "--mutants", "bogus", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "unknown mutant(s) bogus" in capsys.readouterr().err

    def test_sanitize_clean_variant_exits_zero(self, tmp_path, capsys):
        from repro.harness.__main__ import main

        code = main(["sanitize", "--workload", "ra", "--variant",
                     "hv-backoff", "--out", str(tmp_path)])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[0] == (
            "sanitize ra/hv-backoff: clean (64 commits, 51 aborts, "
            "0 fault(s) fired)")
        summary = json.loads((tmp_path / "sanitize_summary.json").read_text())
        assert summary["ok"] is True

    def test_sanitize_exits_nonzero_and_prints_first_violation(
            self, tmp_path, capsys):
        from repro.harness.__main__ import main

        code = main([
            "sanitize", "--workload", "ra", "--variant", "hv-backoff",
            "--fault", "clock_skew:region=g_clock,count=2",
            "--out", str(tmp_path),
        ])
        assert code == 1
        # the skewed clock makes the very next release publish a version
        # "from the future": torn_version fires first
        assert capsys.readouterr().out.splitlines()[:2] == [
            "sanitize ra/hv-backoff: FAIL[sanitizer] (64 commits, "
            "57 aborts, 2 fault(s) fired)",
            "  first violation: torn_version (tid=10 addr=271): lock "
            "release published version 1 beyond the global clock (0)",
        ]

    def test_sanitize_bad_fault_spec_is_a_usage_error(self, capsys):
        from repro.harness.__main__ import main

        with pytest.raises(SystemExit) as exc:
            main(["sanitize", "--variant", "hv-backoff",
                  "--fault", "clock_skew:region=g_clock,cuont=2"])
        assert exc.value.code == 2
        assert "unknown fault option 'cuont'" in capsys.readouterr().err

    def test_sanitize_arms_a_byzantine_kind(self, tmp_path, capsys):
        from repro.harness.__main__ import main

        code = main(["sanitize", "--workload", "ra", "--variant",
                     "hv-sorting", "--fault", "lock_hoard:tids=0+3",
                     "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().out.splitlines()[:2] == [
            "sanitize ra/hv-sorting: FAIL[progress] (42 commits, 58 aborts, "
            "2 fault(s) fired)",
            "  first violation: lock_leak (tid=None addr=258): 2 "
            "version-lock(s) still held at kernel exit (indices 2, 5)",
        ]


def test_default_checkers_cover_every_expectation():
    from repro.faults.mutants import MUTANTS

    for mutant in MUTANTS.values():
        assert set(mutant.expected) <= set(CHECKERS)


class TestEscapees:
    """A mutant no checker catches must be named, not just counted."""

    @staticmethod
    def _benign(monkeypatch):
        from repro.faults import mutants as mutants_mod

        benign = mutants_mod.Mutant(
            "benign-noop", ("hv-sorting",),
            "synthetic never-caught mutant: changes nothing", ("oracle",),
        )
        monkeypatch.setitem(mutants_mod.MUTANTS, "benign-noop", benign)

    def test_clean_matrix_has_no_escapees(self, sanitizer_matrix):
        assert sanitizer_matrix["escapees"] == []

    def test_uncaught_mutant_fails_matrix_by_name(self, monkeypatch):
        self._benign(monkeypatch)
        matrix = run_campaign(mutants=["benign-noop"], checkers=("oracle",),
                              jobs=1, include_baselines=False).summary
        assert matrix["ok"] is False
        assert matrix["escapees"] == ["benign-noop"]
        assert "ESCAPEES: benign-noop" in render_matrix(matrix)

    def test_cli_exits_nonzero_and_names_escapee_in_artifact(
            self, monkeypatch, tmp_path):
        from repro.harness.__main__ import main

        self._benign(monkeypatch)
        code = main([
            "inject", "--mutants", "benign-noop", "--checkers", "oracle",
            "--jobs", "1", "--no-baselines", "--out", str(tmp_path),
        ])
        assert code == 1
        matrix = json.loads((tmp_path / "efficacy_matrix.json").read_text())
        assert matrix["ok"] is False
        assert matrix["escapees"] == ["benign-noop"]
