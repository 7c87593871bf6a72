"""``python -m repro db``: show, last, report, verify."""

import pytest

from repro.expdb.cli import main
from repro.expdb.db import ExperimentDB, RunRecord
from repro.expdb.recorder import hash_file


def _seeded_record(seed, cycles):
    return RunRecord(
        "sweep", "%02d" % seed + "0" * 62,
        provenance={"git": {"sha": "s" * 40, "dirty": False}},
        seed=seed, jobs_total=2, jobs_failed=0, sim_cycles=cycles,
        summary={"cells": {"ra": {"cycles": cycles, "commits": seed * 10}}},
        fingerprints=["f%d" % seed], spec_keys=["'ra'"],
        metrics={"counters": {"jobs.completed": 2, "tx.commits": seed * 10}},
    )


def _record_with_artifact(db_path, experiment, artifact, **kwargs):
    sha, size = hash_file(str(artifact))
    with ExperimentDB(db_path) as db:
        return db.record_run(RunRecord(
            experiment, "ab" * 32, artifacts=[(str(artifact), sha, size)],
            **kwargs))


class TestRecordAndQuery:
    def test_record_query_show_last(self, tmp_path, capsys):
        """A recorded run reads back through ``last`` and ``show``."""
        db_path = str(tmp_path / "e.sqlite")
        artifact = tmp_path / "table.txt"
        artifact.write_text("| data |\n")
        run_id = _record_with_artifact(db_path, "adhoc", artifact, seed=5)
        assert main(["--db", db_path, "last"]) == 0
        last = capsys.readouterr().out
        assert main(["--db", db_path, "show", str(run_id)]) == 0
        assert capsys.readouterr().out == last
        assert "adhoc" in last
        assert "seed:        5" in last
        assert str(artifact) in last

    def test_query_empty_db(self, tmp_path, capsys):
        assert main(["--db", str(tmp_path / "e.sqlite"), "report"]) == 0
        assert "_No recorded runs._" in capsys.readouterr().out

    def test_unknown_ref_exits_2(self, tmp_path, capsys):
        assert main(["--db", str(tmp_path / "e.sqlite"), "show", "7"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("ref", ["%", "_"])
    def test_sql_wildcards_are_not_prefixes(self, ref, tmp_path, capsys):
        """No run key starts with ``%`` or ``_``: the ref matches nothing
        rather than every run."""
        db_path = str(tmp_path / "e.sqlite")
        with ExperimentDB(db_path) as db:
            db.record_run(_seeded_record(1, 100))
        assert main(["--db", db_path, "show", ref]) == 2
        assert "no run with key %r" % ref in capsys.readouterr().err


class TestVerify:
    def test_verify_catches_tampering(self, tmp_path, capsys):
        db_path = str(tmp_path / "e.sqlite")
        artifact = tmp_path / "out.txt"
        artifact.write_text("original\n")
        _record_with_artifact(db_path, "exp", artifact)
        assert main(["--db", db_path, "verify", "last"]) == 0
        artifact.write_text("tampered\n")
        assert main(["--db", db_path, "verify", "last"]) == 1
        assert "MISMATCH" in capsys.readouterr().out


class TestReport:
    def test_report_renders_and_writes(self, tmp_path, capsys):
        db_path = str(tmp_path / "e.sqlite")
        with ExperimentDB(db_path) as db:
            db.record_run(_seeded_record(1, 100))
        out_path = str(tmp_path / "report.md")
        assert main(["--db", db_path, "report", "--out", out_path]) == 0
        text = open(out_path).read()
        assert "# Experiment database report" in text
        assert "sweep" in text


class TestDispatcher:
    def test_python_m_repro_db_routes_here(self, tmp_path, capsys):
        from repro.__main__ import main as top_main

        assert top_main(["db", "--db", str(tmp_path / "e.sqlite"),
                         "report"]) == 0
        assert "_No recorded runs._" in capsys.readouterr().out
