"""The SQLite experiment database: schema, roundtrips, integrity."""

import os

import pytest

from repro.expdb.db import ExperimentDB, RunRecord, _flatten_metrics, default_db_path

from tests.helpers import stored_summary


def _record(experiment="exp", run_key="a" * 64, **kwargs):
    kwargs.setdefault("provenance", {"git": {"sha": "s" * 40, "dirty": False}})
    return RunRecord(experiment, run_key, **kwargs)


class TestRoundtrip:
    def test_record_and_read_back(self, tmp_path):
        path = str(tmp_path / "e.sqlite")
        db = ExperimentDB(path)
        run_id = db.record_run(_record(
            seed=7, jobs_total=4, jobs_failed=1, wall_seconds=1.5,
            sim_cycles=1234,
            summary={"cells": {"ra": {"cycles": 10}}},
            fingerprints=["f1", "f2"], spec_keys=["('ra',)", "('ht',)"],
            metrics={"counters": {"jobs": 4}, "gauges": {"rate": 2.5}},
            failures={"livelock": 1},
            artifacts=[("out.txt", "d" * 64, 17)],
        ))
        row = db.resolve(str(run_id))
        assert row["experiment"] == "exp"
        assert row["git_sha"] == "s" * 40
        assert row["git_dirty"] == 0
        assert row["seed"] == 7
        assert row["jobs_total"] == 4 and row["jobs_failed"] == 1
        assert row["sim_cycles"] == 1234
        assert db.run_specs(run_id) == [
            {"idx": 0, "fingerprint": "f1", "key": "('ra',)"},
            {"idx": 1, "fingerprint": "f2", "key": "('ht',)"},
        ]
        assert db.run_metrics(run_id) == {
            ("counter", "jobs"): 4.0, ("gauge", "rate"): 2.5,
        }
        assert db.run_failures(run_id) == {"livelock": 1}
        assert db.run_artifacts(run_id) == [
            {"path": "out.txt", "sha256": "d" * 64, "bytes": 17}
        ]
        db.close()
        assert stored_summary(path, run_id) == {"cells": {"ra": {"cycles": 10}}}

    def test_reopen_sees_data(self, tmp_path):
        path = str(tmp_path / "e.sqlite")
        with ExperimentDB(path) as db:
            db.record_run(_record())
        with ExperimentDB(path) as db:
            assert db.experiments() == [("exp", 1)]

    def test_resolve_by_last_id_and_prefix(self, tmp_path):
        with ExperimentDB(str(tmp_path / "e.sqlite")) as db:
            first = db.record_run(_record(run_key="aa" + "0" * 62))
            second = db.record_run(_record(run_key="bb" + "0" * 62,
                                           experiment="other"))
            assert db.resolve("last")["id"] == second
            assert db.resolve("last", experiment="exp")["id"] == first
            assert db.resolve(str(first))["id"] == first
            assert db.resolve("bb")["id"] == second
            with pytest.raises(KeyError):
                db.resolve("99")
            with pytest.raises(KeyError):
                db.resolve("ffff")

    def test_digit_ref_falls_back_to_a_key_prefix(self, tmp_path):
        # an all-digit ref is an id only when a run has that id
        with ExperimentDB(str(tmp_path / "e.sqlite")) as db:
            first = db.record_run(_record(run_key="4242" + "a" * 60))
            second = db.record_run(_record(run_key="1" + "b" * 63))
            assert db.resolve("4242")["id"] == first
            assert db.resolve("4242a")["id"] == first
            # run 1 exists: the id wins over the key starting with "1"
            assert db.resolve(str(first))["id"] == first == 1
            assert db.resolve("1b")["id"] == second
            with pytest.raises(KeyError):
                db.resolve("4243")

    def test_prefix_matching_two_keys_is_ambiguous(self, tmp_path):
        with ExperimentDB(str(tmp_path / "e.sqlite")) as db:
            db.record_run(_record(run_key="ab" + "0" * 62))
            db.record_run(_record(run_key="ac" + "0" * 62))
            with pytest.raises(KeyError):
                db.resolve("a")


class TestOlderDatabases:
    def test_leftover_perf_samples_table_is_ignored(self, tmp_path, capsys):
        """Builds before the experiment DB stopped recording perf samples
        created a ``perf_samples`` table at the same schema version; such
        a database must still open, query and report."""
        import sqlite3

        from repro.__main__ import main

        path = str(tmp_path / "old.sqlite")
        with ExperimentDB(path) as db:
            db.record_run(_record(experiment="legacy"))
        conn = sqlite3.connect(path)
        conn.executescript("""
            CREATE TABLE perf_samples (
                run_id        INTEGER NOT NULL REFERENCES runs (id),
                case_name     TEXT NOT NULL,
                steps         INTEGER NOT NULL,
                steps_per_sec REAL NOT NULL
            );
            CREATE INDEX idx_perf_case ON perf_samples (case_name);
            INSERT INTO perf_samples VALUES (1, 'ra/cgl', 4228, 1000.0);
        """)
        conn.commit()
        conn.close()

        with ExperimentDB(path) as db:
            assert db.experiments() == [("legacy", 1)]
        assert main(["db", "--db", path, "last"]) == 0
        assert main(["db", "--db", path, "report"]) == 0
        out = capsys.readouterr().out
        assert "legacy" in out
        assert "ra/cgl" not in out
        conn = sqlite3.connect(path)
        assert conn.execute("SELECT COUNT(*) FROM perf_samples").fetchone() == (1,)
        conn.close()


class TestFlattenMetrics:
    def test_kinds_and_non_numeric_gauges(self):
        rows = _flatten_metrics({
            "counters": {"c": 2},
            "gauges": {"g": 1.5, "label": "text", "flag": True},
            "histograms": {"h": {"count": 3, "total": 9.0, "buckets": {}}},
        })
        assert rows == [
            ("counter", "c", 2.0),
            ("gauge", "g", 1.5),
            ("histogram", "h.count", 3.0),
            ("histogram", "h.total", 9.0),
        ]

    def test_empty(self):
        assert _flatten_metrics(None) == []
        assert _flatten_metrics({}) == []


class TestArtifactVerification:
    def test_tampered_and_missing_artifacts_are_caught(self, tmp_path):
        from repro.expdb.recorder import hash_file

        good = tmp_path / "good.txt"
        good.write_text("payload\n")
        doomed = tmp_path / "doomed.txt"
        doomed.write_text("here today\n")
        entries = [
            (str(good),) + hash_file(str(good)),
            (str(doomed),) + hash_file(str(doomed)),
        ]
        with ExperimentDB(str(tmp_path / "e.sqlite")) as db:
            run_id = db.record_run(_record(artifacts=entries))
            assert db.verify_artifacts(run_id) == []

            good.write_text("tampered\n")
            os.unlink(str(doomed))
            problems = db.verify_artifacts(run_id)
            assert len(problems) == 2
            by_path = {p["path"]: p for p in problems}
            assert by_path[str(good)]["actual"] is not None
            assert by_path[str(good)]["actual"] != by_path[str(good)]["expected"]
            assert by_path[str(doomed)]["actual"] is None

    def test_relative_paths_resolve_against_root(self, tmp_path):
        from repro.expdb.recorder import hash_file

        artifact = tmp_path / "a.txt"
        artifact.write_text("x")
        sha, size = hash_file(str(artifact))
        with ExperimentDB(str(tmp_path / "e.sqlite")) as db:
            run_id = db.record_run(_record(artifacts=[("a.txt", sha, size)]))
            assert db.verify_artifacts(run_id, root=str(tmp_path)) == []
            assert db.verify_artifacts(run_id, root=str(tmp_path / "nowhere"))


class TestDefaults:
    def test_default_db_path_env_override(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXPDB", raising=False)
        assert default_db_path() == os.path.join("expdb", "experiments.sqlite")
        monkeypatch.setenv("REPRO_EXPDB", "/tmp/custom.sqlite")
        assert default_db_path() == "/tmp/custom.sqlite"
