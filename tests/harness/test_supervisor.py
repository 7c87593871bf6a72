"""The sweep executor's supervision: retry/backoff, timeouts, chaos,
checkpoint/resume and the ``supervisor.*`` counters, at every width."""

import multiprocessing
import multiprocessing.connection
import os

import pytest

from repro.harness import configs
from repro.harness.journal import SweepJournal, spec_fingerprint
from repro.harness.parallel import JobResult, JobSpec, execute_job, run_jobs
from repro.harness.supervisor import ChaosPlan, backoff_delay
from repro.telemetry import MetricRegistry


def _ra_spec(key, variant="hv-sorting", **kwargs):
    return JobSpec(
        key, "ra", configs.test_workload_params("ra"), variant,
        num_locks=64, **kwargs
    )


def _counters(registry):
    return registry.as_dict()["counters"]


def _no_sleep(_):
    raise AssertionError("supervisor slept on a path that must not back off")


def _skip_sleep(_):
    """Backoff without the wait."""


def _tuple_executor(spec):
    """Module-level custom executor: a ``JobResult`` whose run is a tuple."""
    return JobResult(spec.key, run=("done", spec.key))


def _explode(spec):
    raise RuntimeError("executor ran for %r but every job was journaled" % spec.key)


def _lambda_executor(spec):
    """Module-level executor whose result cannot cross the worker pipe."""
    return JobResult(spec.key, run=lambda: spec.key)


def _pid_executor(spec):
    """Module-level executor reporting which process ran the attempt."""
    return JobResult(spec.key, run=os.getpid())


class _ExplodingJournal(SweepJournal):
    """A journal whose second record raises: the parent dies mid-sweep."""

    def record(self, fingerprint, key, result):
        if self.load():
            raise RuntimeError("journal disk full")
        super().record(fingerprint, key, result)


class TestHappyPath:
    def test_results_identical_to_unsupervised(self):
        specs = [_ra_spec(("ra", v), variant=v) for v in ("cgl", "hv-sorting")]
        plain = run_jobs(specs, jobs=1)
        registry = MetricRegistry()
        supervised = run_jobs(specs, jobs=1, retries=3, metrics=registry,
                              sleep=_no_sleep)
        assert [r.key for r in supervised] == [r.key for r in plain]
        assert [r.run.cycles for r in supervised] == [r.run.cycles for r in plain]
        assert [r.run.commits for r in supervised] == [r.run.commits for r in plain]

    def test_counters_exact_on_clean_sweep(self):
        specs = [_ra_spec(("ra", v), variant=v) for v in ("cgl", "hv-sorting")]
        registry = MetricRegistry()
        run_jobs(specs, jobs=1, metrics=registry, sleep=_no_sleep)
        counters = _counters(registry)
        assert counters["supervisor.jobs.total"] == 2
        assert counters["supervisor.jobs.executed"] == 2
        assert counters["supervisor.jobs.succeeded"] == 2
        assert counters["supervisor.first_attempt_successes"] == 2
        assert counters["supervisor.attempts"] == 2
        assert "supervisor.retries" not in counters
        assert "supervisor.jobs.failed" not in counters

    def test_run_jobs_routes_to_supervisor(self):
        specs = [_ra_spec("one")]
        registry = MetricRegistry()
        results = run_jobs(specs, jobs=1, retries=1, metrics=registry)
        assert not results[0].failed
        assert _counters(registry)["supervisor.jobs.total"] == 1


#: the counters a clean sweep leaves, at every width, journal or not
CLEAN_COUNTERS = {
    "supervisor.jobs.total", "supervisor.jobs.executed",
    "supervisor.jobs.succeeded", "supervisor.first_attempt_successes",
    "supervisor.attempts",
}


@pytest.mark.parametrize("retries", [0, 2])
@pytest.mark.parametrize("journaled", [False, True])
@pytest.mark.parametrize("jobs", [1, 2])
def test_one_executor_contract(jobs, journaled, retries, tmp_path):
    """Width, journal and retries change how cells run, never what they
    return or which counters the sweep leaves."""
    specs = [_ra_spec(("ra", v), variant=v) for v in ("cgl", "hv-sorting")]
    reference = [execute_job(spec) for spec in specs]
    registry = MetricRegistry()
    journal = str(tmp_path / "sweep.journal") if journaled else None
    results = run_jobs(specs, jobs=jobs, retries=retries, journal=journal,
                       metrics=registry, sleep=_no_sleep)
    assert [r.key for r in results] == [r.key for r in reference]
    assert [r.run.cycles for r in results] == [r.run.cycles for r in reference]
    assert [r.run.stats for r in results] == [r.run.stats for r in reference]
    counters = _counters(registry)
    workers = counters.pop("supervisor.workers.started", None)
    assert set(counters) == CLEAN_COUNTERS
    assert counters["supervisor.jobs.succeeded"] == len(specs)
    assert workers == (min(jobs, len(specs)) if jobs > 1 else None)


def test_chaos_error_under_a_journal_without_retries_fails_its_cell(tmp_path):
    # a journal asks for a checkpoint, not for retries
    registry = MetricRegistry()
    flaky, calm = run_jobs(
        [_ra_spec("flaky"), _ra_spec("calm")], jobs=1,
        journal=str(tmp_path / "sweep.journal"),
        chaos=ChaosPlan().add("flaky", "error"), metrics=registry,
        sleep=_no_sleep,
    )
    assert flaky.failed and flaky.failure.category == "transient"
    assert flaky.failure.attempts == 1
    assert not calm.failed
    counters = _counters(registry)
    assert counters["supervisor.failures.transient"] == 1
    assert "supervisor.retries" not in counters


class TestRetry:
    def test_transient_chaos_error_is_retried_to_success(self):
        specs = [_ra_spec("flaky"), _ra_spec("calm")]
        plain = run_jobs(specs, jobs=1)
        plan = ChaosPlan().add("flaky", "error")
        registry = MetricRegistry()
        delays = []
        results = run_jobs(specs, jobs=1, retries=2, chaos=plan,
                           metrics=registry, sleep=delays.append)
        assert not any(r.failed for r in results)
        assert [r.run.cycles for r in results] == [r.run.cycles for r in plain]
        counters = _counters(registry)
        assert counters["supervisor.retries"] == 1
        # the acceptance identity: every job is either a first-attempt
        # success or accounted for by a retry
        assert (counters["supervisor.first_attempt_successes"]
                + counters["supervisor.retries"]) == counters["supervisor.jobs.total"]
        assert len(delays) == 1 and delays[0] > 0

    def test_retries_exhausted_is_structured_failure(self):
        plan = ChaosPlan().add("flaky", "error", attempts=(0, 1, 2, 3, 4))
        registry = MetricRegistry()
        results = run_jobs([_ra_spec("flaky")], jobs=1, retries=2,
                           chaos=plan, metrics=registry, sleep=_skip_sleep)
        failure = results[0].failure
        assert results[0].failed
        assert failure.category == "transient"
        assert failure.transient
        assert failure.attempts == 3  # 1 + retries
        counters = _counters(registry)
        assert counters["supervisor.jobs.failed"] == 1
        assert counters["supervisor.failures.transient"] == 1
        assert counters["supervisor.retries"] == 2

    def test_backoff_is_deterministic_and_capped(self):
        fp = "deadbeef" * 8
        first = backoff_delay(fp, 1)
        assert first == backoff_delay(fp, 1)
        assert 0.25 <= first <= 0.375
        assert backoff_delay("0badf00d" * 8, 1) != first
        # attempt 10 is capped at 8 s plus at most half of it in jitter
        assert 8.0 <= backoff_delay(fp, 10) <= 8.0 * 1.5


class TestWatchdogClassification:
    def test_livelocked_unsorted_run_is_not_retried(self):
        # the section 2.2 strawman under a tight simulated-cycle budget:
        # the watchdog trips with all stuck lanes still stepping, the
        # failure is classified `livelock`, and — because replaying a
        # deterministic simulation replays the livelock — it is NOT
        # retried despite retries=3
        registry = MetricRegistry()
        results = run_jobs(
            [_ra_spec("doomed", variant="unsorted",
                      gpu_overrides=dict(max_steps=200))],
            jobs=1, retries=3, metrics=registry, sleep=_no_sleep,
        )
        failure = results[0].failure
        assert results[0].failed
        assert failure.category == "livelock"
        assert not failure.transient
        assert failure.attempts == 1
        counters = _counters(registry)
        assert "supervisor.retries" not in counters
        assert counters["supervisor.timeouts.cycle"] == 1
        assert counters["supervisor.failures.livelock"] == 1

    def test_warp_stall_transient_is_retried_and_succeeds(self):
        # a chaos-armed warp_stall fault (plus a tight step budget) fails
        # the first attempt as transient; the clean retry must converge
        # to the same result as an undisturbed run
        spec = _ra_spec("stalled")
        plain = run_jobs([_ra_spec("stalled")], jobs=1)[0]
        plan = ChaosPlan().add(
            "stalled", "fault",
            faults=["warp_stall:sm=0,warp=0,after=5,duration=1000000"],
            gpu_overrides=dict(max_steps=2000),
        )
        registry = MetricRegistry()
        results = run_jobs([spec], jobs=1, retries=2, chaos=plan,
                           metrics=registry, sleep=_skip_sleep)
        assert not results[0].failed
        assert results[0].run.cycles == plain.run.cycles
        assert results[0].run.commits == plain.run.commits
        counters = _counters(registry)
        assert counters["supervisor.retries"] == 1
        assert counters["supervisor.jobs.succeeded"] == 1


class TestChaosGuards:
    def test_serial_mode_rejects_process_chaos(self):
        plan = ChaosPlan().add("k", "sigkill")
        with pytest.raises(ValueError, match="worker processes"):
            run_jobs([_ra_spec("k")], jobs=1, chaos=plan)

    def test_serial_mode_rejects_wall_timeout(self):
        with pytest.raises(ValueError, match="worker processes"):
            run_jobs([_ra_spec("k")], jobs=1, timeout=5.0)

    def test_unknown_chaos_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos kind"):
            ChaosPlan().add("k", "meteor-strike")


class TestCustomExecutor:
    def test_custom_executor_results_pass_through(self):
        specs = [_ra_spec("a"), _ra_spec("b")]
        registry = MetricRegistry()
        results = run_jobs(specs, jobs=1, executor=_tuple_executor,
                           metrics=registry)
        assert [r.run for r in results] == [("done", "a"), ("done", "b")]
        assert _counters(registry)["supervisor.jobs.succeeded"] == 2


class TestJournalResume:
    def test_resume_skips_completed_jobs_bit_identically(self, tmp_path):
        path = str(tmp_path / "sweep.journal")
        specs = [_ra_spec(("ra", v), variant=v) for v in ("cgl", "hv-sorting")]
        first = run_jobs(specs, jobs=1, journal=path)
        # resume with an executor that refuses to run: every job must be
        # served from the journal, and the merged output must match
        registry = MetricRegistry()
        resumed = run_jobs(specs, jobs=1, journal=path, executor=_explode,
                           metrics=registry)
        counters = _counters(registry)
        assert counters["supervisor.jobs.resumed"] == 2
        assert counters["supervisor.jobs.executed"] == 0
        assert "supervisor.attempts" not in counters
        assert [r.key for r in resumed] == [r.key for r in first]
        assert [r.run.cycles for r in resumed] == [r.run.cycles for r in first]
        assert [r.run.stats for r in resumed] == [r.run.stats for r in first]

    def test_partial_journal_reruns_only_missing_jobs(self, tmp_path):
        path = str(tmp_path / "sweep.journal")
        specs = [_ra_spec(("ra", v), variant=v) for v in ("cgl", "hv-sorting")]
        full = run_jobs(specs, jobs=1)
        with SweepJournal(path) as journal:
            journal.record(spec_fingerprint(specs[0]), specs[0].key, full[0])
        registry = MetricRegistry()
        resumed = run_jobs(specs, jobs=1, journal=path, metrics=registry)
        counters = _counters(registry)
        assert counters["supervisor.jobs.resumed"] == 1
        assert counters["supervisor.jobs.executed"] == 1
        assert [r.run.cycles for r in resumed] == [r.run.cycles for r in full]

    def test_failed_jobs_are_journaled_too(self, tmp_path):
        # a deterministic failure is durable: resuming does not re-run it
        path = str(tmp_path / "sweep.journal")
        spec = _ra_spec("doomed", variant="unsorted",
                        gpu_overrides=dict(max_steps=200))
        first = run_jobs([spec], jobs=1, journal=path)
        assert first[0].failed
        registry = MetricRegistry()
        resumed = run_jobs([spec], jobs=1, journal=path, executor=_explode,
                           metrics=registry)
        assert _counters(registry)["supervisor.jobs.resumed"] == 1
        assert resumed[0].failed
        assert resumed[0].failure.category == "livelock"



@pytest.mark.slow
class TestProcessMode:
    def test_sigkilled_worker_is_retried_as_worker_lost(self):
        specs = [_ra_spec("victim"), _ra_spec("bystander")]
        plain = run_jobs(specs, jobs=1)
        plan = ChaosPlan().add("victim", "sigkill")
        registry = MetricRegistry()
        results = run_jobs(specs, jobs=2, retries=2, chaos=plan,
                           metrics=registry)
        assert not any(r.failed for r in results)
        assert [r.run.cycles for r in results] == [r.run.cycles for r in plain]
        counters = _counters(registry)
        assert counters["supervisor.retries"] >= 1
        # the warm pool replaces exactly the one killed worker
        assert counters["supervisor.workers.started"] == 2 + 1
        assert "supervisor.failures.worker-lost" not in counters

    def test_hung_worker_is_reaped_at_wall_timeout(self):
        specs = [_ra_spec("sleeper")]
        plan = ChaosPlan().add("sleeper", "hang", hang_seconds=60.0)
        registry = MetricRegistry()
        results = run_jobs(specs, jobs=2, retries=1, timeout=3.0,
                           chaos=plan, metrics=registry)
        assert not results[0].failed
        counters = _counters(registry)
        assert counters["supervisor.timeouts.wall"] == 1
        assert counters["supervisor.retries"] == 1
        # one worker for the one job, plus the hung one's replacement
        assert counters["supervisor.workers.started"] == 1 + 1

    def test_unpicklable_result_is_terminal_not_retried(self):
        registry = MetricRegistry()
        results = run_jobs([_ra_spec("opaque")], jobs=2, retries=2,
                           executor=_lambda_executor, metrics=registry)
        failure = results[0].failure
        assert results[0].failed
        assert failure.category == "unpicklable"
        assert "'opaque'" in failure.message
        counters = _counters(registry)
        assert "supervisor.retries" not in counters
        assert counters["supervisor.failures.unpicklable"] == 1

    def test_pool_results_match_serial_supervised(self):
        specs = [_ra_spec(("ra", v), variant=v)
                 for v in ("cgl", "hv-sorting", "optimized")]
        serial = run_jobs(specs, jobs=1, retries=2)
        pooled = run_jobs(specs, jobs=2, retries=2)
        assert [r.key for r in pooled] == [r.key for r in serial]
        assert [r.run.cycles for r in pooled] == [r.run.cycles for r in serial]

    def test_one_warm_worker_serves_several_attempts(self):
        specs = [_ra_spec(i) for i in range(6)]
        registry = MetricRegistry()
        pids = [r.run for r in run_jobs(
            specs, jobs=2, executor=_pid_executor, metrics=registry)]
        assert len(set(pids)) <= 2 < len(pids)
        assert os.getpid() not in pids
        assert _counters(registry)["supervisor.workers.started"] == 2
        assert multiprocessing.active_children() == []

    def test_unretried_sigkill_is_worker_lost(self):
        registry = MetricRegistry()
        results = run_jobs(
            [_ra_spec("victim")], jobs=2,
            chaos=ChaosPlan().add("victim", "sigkill"), metrics=registry,
        )
        assert results[0].failure.category == "worker-lost"
        counters = _counters(registry)
        assert counters["supervisor.failures.worker-lost"] == 1
        # no work left: the dead worker is not replaced
        assert counters["supervisor.workers.started"] == 1

    def test_no_children_survive_a_parent_exception(self, tmp_path):
        journal = _ExplodingJournal(str(tmp_path / "sweep.journal"))
        with pytest.raises(RuntimeError, match="disk full"):
            run_jobs([_ra_spec(i) for i in range(4)], jobs=2,
                     journal=journal)
        journal.close()
        assert multiprocessing.active_children() == []

    def test_parent_blocks_instead_of_polling(self, monkeypatch):
        # queued jobs must not turn the parent's wait into a zero-timeout
        # spin that takes a core from the workers
        calls = []
        real_wait = multiprocessing.connection.wait

        def counting_wait(*args, **kwargs):
            calls.append(args)
            return real_wait(*args, **kwargs)

        monkeypatch.setattr(multiprocessing.connection, "wait", counting_wait)
        specs = [_ra_spec(i) for i in range(8)]
        results = run_jobs(specs, jobs=2, retries=2)
        assert not any(r.failed for r in results)
        assert len(calls) <= 4 * len(specs)
