"""Campaign driver: matrix shape, parallel determinism, CLI exit codes."""

import json

import pytest

from repro.faults.campaign import (
    CHECKERS,
    CampaignJob,
    _error_cell,
    execute_campaign_job,
    render_matrix,
    run_campaign,
)

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
    def test_fuzzer_checker_on_schedule_dependent_bug(self):
        # the one mutant only the fuzzer catches (begin-time snapshot bug)
        job = CampaignJob(
            "vbv-snapshot-off-by-one", "vbv", "fuzzer", "ra",
            dict(array_size=4, grid=2, block=16,
                 txs_per_thread=4, actions_per_tx=4),
            seeds=2,
        )
        result = execute_campaign_job(job)
        assert not result.failed
        assert result.run["error"] is None
        assert result.run["detected"] is True

    def test_worker_never_raises(self):
        job = CampaignJob(None, "vbv", "oracle", "no-such-workload", {}, 1)
        result = execute_campaign_job(job)
        assert result.failed
        cell = _error_cell(job, result)
        assert "no-such-workload" in cell["error"]
        assert cell["detected"] is True  # poisons ok instead of vanishing

    def test_job_is_picklable(self):
        import pickle

        job = CampaignJob("clock-stuck", "hv-backoff", "oracle", "ra",
                          dict(array_size=8), 2)
        clone = pickle.loads(pickle.dumps(job))
        assert clone.mutant == job.mutant
        assert clone.params == job.params


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

    def test_inject_rejects_unknown_mutant(self, tmp_path):
        from repro.harness.__main__ import main

        with pytest.raises(ValueError, match="unknown mutant"):
            main(["inject", "--mutants", "bogus", "--out", str(tmp_path)])

    def test_sanitize_clean_variant_exits_zero(self, capsys):
        from repro.harness.__main__ import main

        code = main(["sanitize", "--workload", "ra", "--variant", "hv-backoff"])
        assert code == 0
        assert "clean" in capsys.readouterr().out

    def test_sanitize_exits_nonzero_and_prints_first_violation(self, capsys):
        from repro.harness.__main__ import main

        code = main([
            "sanitize", "--workload", "ra", "--variant", "hv-backoff",
            "--fault", "clock_skew:region=g_clock,count=2",
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "first violation" in out
        # the skewed clock makes the very next release publish a version
        # "from the future" (torn_version fires first); the later reuse
        # still trips clock_monotonicity in the full violation list
        assert "torn_version" in out or "clock_monotonicity" in out

    def test_sanitize_bad_fault_spec_is_a_usage_error(self, capsys):
        from repro.harness.__main__ import main

        with pytest.raises(SystemExit) as exc:
            main(["sanitize", "--variant", "hv-backoff",
                  "--fault", "clock_skew:region=g_clock,cuont=2"])
        assert exc.value.code == 2
        assert "unknown fault option 'cuont'" in capsys.readouterr().err

    def test_sanitize_arms_a_byzantine_kind(self, capsys):
        from repro.harness.__main__ import main

        code = main(["sanitize", "--workload", "ra", "--variant",
                     "hv-sorting", "--fault", "lock_hoard:tids=0+3"])
        assert code == 1
        out = capsys.readouterr().out
        assert "2 fault(s) fired" in out
        assert "lock_leak" in out


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
