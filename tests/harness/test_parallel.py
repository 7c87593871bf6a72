"""The process-parallel job harness: specs, ordering, crash capture."""

import dataclasses
import os
import pickle
import subprocess
import sys

import pytest

import repro
from repro.harness import configs
from repro.harness.parallel import (
    JobResult,
    JobSpec,
    default_jobs,
    execute_job,
    run_jobs,
)


def _ra_spec(key, variant="hv-sorting", **kwargs):
    return JobSpec(
        key, "ra", configs.test_workload_params("ra"), variant,
        num_locks=64, **kwargs
    )


class TestJobSpec:
    def test_pickle_round_trip(self):
        spec = _ra_spec(("ra", "hv-sorting"), stm_overrides=dict(max_lock_attempts=4),
                        gpu_overrides=dict(max_steps=100000), verify=False,
                        allow_crash=True)
        clone = pickle.loads(pickle.dumps(spec))
        for field in dataclasses.fields(JobSpec):
            assert getattr(clone, field.name) == getattr(spec, field.name), \
                field.name

    def test_params_copied_not_aliased(self):
        params = configs.test_workload_params("ra")
        spec = JobSpec("k", "ra", params, "cgl")
        params["grid"] = 999
        assert spec.params["grid"] != 999


class TestDefaultJobs:
    def test_unset_means_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert default_jobs() == 1

    def test_env_value_used(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert default_jobs() == 4

    def test_garbage_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            default_jobs()


class TestRunJobs:
    def test_results_in_spec_order_with_keys(self):
        specs = [_ra_spec(("ra", v), variant=v) for v in ("cgl", "hv-sorting")]
        results = run_jobs(specs, jobs=1)
        assert [r.key for r in results] == [("ra", "cgl"), ("ra", "hv-sorting")]
        for result in results:
            assert not result.failed
            assert result.unwrap().cycles > 0

    @pytest.mark.slow
    def test_parallel_matches_serial(self):
        specs = [_ra_spec(("ra", v), variant=v) for v in ("cgl", "hv-sorting")]
        serial = run_jobs(specs, jobs=1)
        parallel = run_jobs(specs, jobs=2)
        assert [r.key for r in parallel] == [r.key for r in serial]
        assert [r.unwrap().cycles for r in parallel] == [
            r.unwrap().cycles for r in serial
        ]
        assert [r.unwrap().commits for r in parallel] == [
            r.unwrap().commits for r in serial
        ]

    def test_worker_crash_is_captured_not_raised(self):
        # max_steps=50 trips the watchdog inside the worker (classified as
        # livelock: the cut-short lanes were all still stepping); the
        # sibling job must still complete
        specs = [
            _ra_spec("doomed", gpu_overrides=dict(max_steps=50)),
            _ra_spec("fine"),
        ]
        doomed, fine = run_jobs(specs, jobs=1)
        assert doomed.failed
        assert "LivelockError" in doomed.error
        with pytest.raises(RuntimeError, match="doomed"):
            doomed.unwrap()
        assert not fine.failed
        assert fine.unwrap().commits > 0

    def test_unknown_gpu_override_is_captured(self):
        result = execute_job(_ra_spec("bad", gpu_overrides=dict(nonsense=1)))
        assert result.failed
        assert "nonsense" in result.error


class TestJobResult:
    def test_as_failure_synthesizes_failure_from_legacy_error(self):
        # a result that kept only the traceback (older journals) still
        # yields a structured failure for the figures' roster
        legacy = JobResult("old", error="Traceback ...\nValueError: nope")
        failure = legacy.as_failure()
        assert failure.key == "old"
        assert failure.message == "ValueError: nope"
        assert JobResult("fine", run="payload").as_failure() is None


def _tag_executor(spec):
    """Module-level so it pickles into worker processes."""
    return JobResult(spec.key, run=("tagged", spec.key))


class TestCustomExecutor:
    def test_serial_path_uses_custom_executor(self):
        specs = [_ra_spec("a"), _ra_spec("b")]
        results = run_jobs(specs, jobs=1, executor=_tag_executor)
        assert [r.run for r in results] == [("tagged", "a"), ("tagged", "b")]

    @pytest.mark.slow
    def test_pool_path_uses_custom_executor(self):
        specs = [_ra_spec(k) for k in ("a", "b", "c")]
        results = run_jobs(specs, jobs=2, executor=_tag_executor)
        assert [r.run for r in results] == [
            ("tagged", "a"),
            ("tagged", "b"),
            ("tagged", "c"),
        ]


def _unpicklable_result_executor(spec):
    """Module-level executor whose *result* cannot cross the pipe."""
    return JobResult(spec.key, run=lambda: spec.key)


class TestPoolFailures:
    @pytest.mark.slow
    def test_unpicklable_spec_names_the_offending_job(self):
        # a closure smuggled into a spec's params cannot be shipped to a
        # worker; the failure must name that spec and spare its siblings
        bad = _ra_spec("bad")
        bad.params["hook"] = lambda: None
        fine = _ra_spec("fine")
        bad_result, fine_result = run_jobs([bad, fine], jobs=2)
        assert bad_result.failed
        assert bad_result.failure.category == "unpicklable"
        assert "'bad'" in bad_result.failure.message
        assert not bad_result.failure.transient
        assert not fine_result.failed
        assert fine_result.unwrap().commits > 0

    @pytest.mark.slow
    def test_unpicklable_result_names_the_offending_job(self):
        results = run_jobs(
            [_ra_spec("a"), _ra_spec("b")], jobs=2,
            executor=_unpicklable_result_executor,
        )
        assert [r.key for r in results] == ["a", "b"]
        for result in results:
            assert result.failed
            assert result.failure.category == "unpicklable"
            assert "%r" % result.key in result.failure.message


class TestImportLaziness:
    def test_cli_and_run_jobs_import_no_process_machinery(self):
        # a fresh interpreter: this one has long since imported them all
        code = (
            "import sys, repro.harness.parallel, repro.__main__\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] in "
            "('multiprocessing', 'concurrent') "
            "or m == 'repro.harness.supervisor'))"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            repro.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"
