"""The perf observatory: rolling windows, step drift, trajectory report."""

from repro.expdb.db import ExperimentDB
from repro.expdb.observatory import (
    record_perf_run,
    rolling_verdict,
    trajectory_report,
)


def _db(tmp_path):
    return ExperimentDB(str(tmp_path / "perf.sqlite"))


def _record(db, rate, steps=4000, case="ra/hv-sorting"):
    return record_perf_run(
        db, {case: {"steps": steps, "steps_per_sec": rate}}, provenance={}
    )


class TestRollingVerdict:
    def test_no_history(self, tmp_path):
        with _db(tmp_path) as db:
            verdict = rolling_verdict(db, "ra/hv-sorting", 4000, 1000.0)
            assert verdict.status == "no-history"
            assert verdict.ok

    def test_ok_within_tolerance_of_median(self, tmp_path):
        with _db(tmp_path) as db:
            for rate in (900.0, 1000.0, 1100.0):
                _record(db, rate)
            verdict = rolling_verdict(db, "ra/hv-sorting", 4000, 850.0,
                                      tolerance=0.2)
            assert verdict.status == "ok"
            assert verdict.median_rate == 1000.0
            assert verdict.window_size == 3

    def test_rate_below_tolerance_is_regression(self, tmp_path):
        with _db(tmp_path) as db:
            for rate in (900.0, 1000.0, 1100.0):
                _record(db, rate)
            verdict = rolling_verdict(db, "ra/hv-sorting", 4000, 700.0,
                                      tolerance=0.2)
            assert verdict.status == "regression"
            assert not verdict.ok
            assert "rolling median" in verdict.reason

    def test_median_shrugs_off_one_noisy_sample(self, tmp_path):
        with _db(tmp_path) as db:
            for rate in (1000.0, 1000.0, 5000.0):
                _record(db, rate)
            # mean would be 2333 and flag 900 as a 61% drop; median doesn't
            assert rolling_verdict(db, "ra/hv-sorting", 4000, 900.0,
                                   tolerance=0.2).status == "ok"

    def test_step_drift_flags_regardless_of_rate(self, tmp_path):
        with _db(tmp_path) as db:
            _record(db, 1000.0, steps=4000)
            verdict = rolling_verdict(db, "ra/hv-sorting", 3739, 99999.0)
            assert verdict.status == "regression"
            assert "step drift" in verdict.reason

    def test_window_limits_history(self, tmp_path):
        with _db(tmp_path) as db:
            for rate in (100.0,) * 5 + (1000.0,) * 3:
                _record(db, rate)
            # window of 3 sees only the recent fast samples
            verdict = rolling_verdict(db, "ra/hv-sorting", 4000, 700.0,
                                      window=3, tolerance=0.2)
            assert verdict.status == "regression"
            # a wide window still holds the old slow samples; median drops
            assert rolling_verdict(db, "ra/hv-sorting", 4000, 700.0,
                                   window=8, tolerance=0.2).status == "ok"


class TestArmedFaultDetection:
    def test_warp_stall_run_is_flagged_as_regression(self, tmp_path):
        """The acceptance scenario: a run artificially slowed by an armed
        warp_stall fault must be flagged against the recorded window.  The
        stall perturbs the schedule, so the *simulated step count* drifts —
        a deterministic signal, immune to wall-clock noise."""
        import time

        from repro.harness import configs
        from tests.helpers import explore

        params = configs.test_workload_params("ra")

        def measure(fault_plan=None):
            start = time.perf_counter()
            outcome = explore("ra", params, "hv-sorting",
                              fault_plan=fault_plan)
            elapsed = time.perf_counter() - start
            assert outcome.failure is None
            return outcome.steps, outcome.steps / elapsed

        base_steps, base_rate = measure()
        stalled_steps, stalled_rate = measure(
            ["warp_stall:sm=0,warp=0,after=50,duration=1024"]
        )
        assert stalled_steps != base_steps

        with _db(tmp_path) as db:
            _record(db, base_rate, steps=base_steps)
            verdict = rolling_verdict(db, "ra/hv-sorting", stalled_steps,
                                      stalled_rate)
            assert verdict.status == "regression"
            assert "step drift" in verdict.reason


class TestTrajectoryReport:
    def test_empty_db(self, tmp_path):
        with _db(tmp_path) as db:
            assert "No perf samples" in trajectory_report(db)

    def test_series_and_latest_verdict(self, tmp_path):
        with _db(tmp_path) as db:
            for rate in (1000.0, 1050.0, 600.0):
                _record(db, rate)
            report = trajectory_report(db, tolerance=0.2)
            assert "## ra/hv-sorting" in report
            assert "REGRESSION" in report
            assert report.count("| ") > 3

    def test_single_sample_has_no_window(self, tmp_path):
        with _db(tmp_path) as db:
            _record(db, 1000.0)
            assert "no window" in trajectory_report(db)
