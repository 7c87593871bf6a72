"""SweepRecorder: fingerprints, run keys, journal↔DB consistency."""

import os
import subprocess
import sys

import pytest

from repro.expdb.db import ExperimentDB
from repro.expdb.recorder import SweepRecorder, build_record, sweep_run_key
from repro.harness.journal import SweepJournal, spec_fingerprint
from repro.harness.parallel import JobFailure, JobResult, JobSpec, run_jobs
from repro.harness.runner import RunResult


def _spec(key="k", workload="ra", **kwargs):
    kwargs.setdefault("params", {"grid": 1, "block": 4})
    return JobSpec(key, workload, kwargs.pop("params"), "hv-sorting", **kwargs)


def _ok_result(spec, cycles=100, commits=8):
    run = RunResult(spec.workload, spec.variant)
    run.cycles = cycles
    run.commits = commits
    run.abort_rate = 0.25
    return JobResult(spec.key, run=run)


def fake_executor(spec):
    """Module-level (picklable) executor: deterministic fake outcomes."""
    if spec.key == "boom":
        return JobResult(
            spec.key, error="Traceback: boom",
            failure=JobFailure(spec.key, "livelock", "LivelockError", "boom"),
        )
    return _ok_result(spec, cycles=100 + len(str(spec.key)))


class TestFingerprintStability:
    def test_fingerprint_is_stable_across_processes(self):
        spec = _spec(key=("ra", "hv-sorting"), params={"grid": 2, "block": 8})
        local = spec_fingerprint(spec)
        code = (
            "import sys; sys.path.insert(0, %r); "
            "from repro.harness.journal import spec_fingerprint; "
            "from repro.harness.parallel import JobSpec; "
            "spec = JobSpec(('ra', 'hv-sorting'), 'ra', "
            "{'grid': 2, 'block': 8}, 'hv-sorting'); "
            "print(spec_fingerprint(spec))" % "src"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], cwd="/root/repo",
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == local

    def test_run_key_depends_on_experiment_and_order(self):
        assert sweep_run_key("a", ["f1", "f2"]) != sweep_run_key("b", ["f1", "f2"])
        assert sweep_run_key("a", ["f1", "f2"]) != sweep_run_key("a", ["f2", "f1"])
        assert sweep_run_key("a", ["f1", "f2"]) == sweep_run_key("a", ["f1", "f2"])


class TestBuildRecord:
    def test_failure_taxonomy_and_cells(self):
        specs = [_spec(key="good"), _spec(key="boom")]
        results = [fake_executor(s) for s in specs]
        record = build_record("exp", specs, results, provenance={})
        assert record.jobs_total == 2
        assert record.jobs_failed == 1
        assert record.failures == {"livelock": 1}
        assert record.sim_cycles == 104
        cells = record.summary["cells"]
        assert cells["good"]["cycles"] == 104
        assert cells["boom"] == {"failed": True, "category": "livelock"}
        assert record.fingerprints == [spec_fingerprint(s) for s in specs]


class TestSweepRecorder:
    def test_records_through_run_jobs(self, tmp_path):
        db_path = str(tmp_path / "e.sqlite")
        specs = [_spec(key="a"), _spec(key="b")]
        recorder = SweepRecorder(db_path, "unit-sweep", seed=3)
        run_jobs(specs, jobs=1, executor=fake_executor, recorder=recorder)
        assert recorder.run_id is not None
        assert recorder.run_key == sweep_run_key(
            "unit-sweep", [spec_fingerprint(s) for s in specs]
        )
        with ExperimentDB(db_path) as db:
            row = db.resolve("last")
            assert row["experiment"] == "unit-sweep"
            assert row["seed"] == 3
            assert row["run_key"] == recorder.run_key
            assert [s["fingerprint"] for s in db.run_specs(row["id"])] == [
                spec_fingerprint(s) for s in specs
            ]

    def test_recorder_is_single_shot(self, tmp_path):
        recorder = SweepRecorder(str(tmp_path / "e.sqlite"), "once")
        recorder([], [], None)
        with pytest.raises(RuntimeError):
            recorder([], [], None)

    def test_add_artifacts_requires_a_recorded_run(self, tmp_path):
        recorder = SweepRecorder(str(tmp_path / "e.sqlite"), "x")
        with pytest.raises(RuntimeError):
            recorder.add_artifacts([str(tmp_path / "nope.txt")])

    def test_simulating_and_recording_never_import_numpy(self, tmp_path):
        """The package has no third-party runtime dependency: a simulated
        run plus a recorded sweep (provenance included) load no NumPy.
        Checked in a fresh interpreter, since test plugins may import it."""
        code = (
            "import sys\n"
            "from repro.expdb.recorder import SweepRecorder\n"
            "from repro.harness.configs import test_workload_params, unit_gpu\n"
            "from repro.harness.runner import run_workload\n"
            "from repro.workloads import make_workload\n"
            "run_workload(make_workload('ra', **test_workload_params('ra')),\n"
            "             'optimized', unit_gpu(), num_locks=64)\n"
            "SweepRecorder(sys.argv[1], 'probe')([], [], None)\n"
            "print('numpy' in sys.modules)\n"
        )
        src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")
        out = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / "e.sqlite")],
            env=dict(os.environ, PYTHONPATH=os.path.abspath(src)),
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "False"

    def test_add_artifacts_hashes_and_attaches(self, tmp_path):
        artifact = tmp_path / "out.txt"
        artifact.write_text("rendered table\n")
        db_path = str(tmp_path / "e.sqlite")
        recorder = SweepRecorder(db_path, "sweep")
        run_jobs([_spec()], jobs=1, executor=fake_executor, recorder=recorder)
        recorder.add_artifacts([str(artifact)])
        with ExperimentDB(db_path) as db:
            arts = db.run_artifacts(recorder.run_id)
            assert [a["path"] for a in arts] == [str(artifact)]
            assert db.verify_artifacts(recorder.run_id) == []


class TestJournalDbConsistency:
    def test_interrupted_then_resumed_sweep_matches_uninterrupted(self, tmp_path):
        """A sweep killed mid-run and resumed records the same run_key,
        fingerprints and cells as one that never died — and both match
        what the journal checkpointed."""
        specs = [_spec(key=k) for k in ("a", "b", "c", "d")]

        # the uninterrupted reference
        ref_db = str(tmp_path / "ref.sqlite")
        ref = SweepRecorder(ref_db, "sweep")
        run_jobs(specs, jobs=1, executor=fake_executor,
                 journal=str(tmp_path / "ref.journal"), recorder=ref)

        # "kill" after two jobs: a first pass that only covers a prefix
        # of the sweep leaves a partial journal behind
        journal_path = str(tmp_path / "partial.journal")
        run_jobs(specs[:2], jobs=1, executor=fake_executor,
                 journal=journal_path)

        # resume the full sweep against the partial journal
        db_path = str(tmp_path / "resumed.sqlite")
        resumed = SweepRecorder(db_path, "sweep")
        run_jobs(specs, jobs=1, executor=fake_executor,
                 journal=journal_path, recorder=resumed)

        assert resumed.run_key == ref.run_key
        with ExperimentDB(db_path) as db, ExperimentDB(ref_db) as refdb:
            run = db.resolve("last")
            ref_run = refdb.resolve("last")
            assert db.run_specs(run["id"]) == refdb.run_specs(ref_run["id"])
            assert (db.run_summary(run["id"])["cells"]
                    == refdb.run_summary(ref_run["id"])["cells"])
            # the journal's fingerprints are exactly the DB's spec rows
            journal = SweepJournal(journal_path)
            checkpointed = set(journal.load())
            journal.close()
            assert checkpointed == {
                s["fingerprint"] for s in db.run_specs(run["id"])
            }
            # the resumed run's metrics record the resume itself
            metrics = db.run_metrics(run["id"])
            assert metrics[("counter", "supervisor.jobs.resumed")] == 2.0
            assert metrics[("counter", "supervisor.jobs.executed")] == 2.0
