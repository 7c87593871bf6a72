"""``python -m repro db``: record, query, diff stability, verify."""

import pytest

from repro.expdb.cli import main
from repro.expdb.db import ExperimentDB, RunRecord


def _seeded_record(seed, cycles):
    return RunRecord(
        "sweep", "%02d" % seed + "0" * 62,
        provenance={"git": {"sha": "s" * 40, "dirty": False}},
        seed=seed, jobs_total=2, jobs_failed=0, sim_cycles=cycles,
        summary={"cells": {"ra": {"cycles": cycles, "commits": seed * 10}}},
        fingerprints=["f%d" % seed], spec_keys=["'ra'"],
        metrics={"counters": {"jobs.completed": 2, "tx.commits": seed * 10}},
    )


class TestRecordAndQuery:
    def test_record_query_show_last(self, tmp_path, capsys):
        db_path = str(tmp_path / "e.sqlite")
        artifact = tmp_path / "table.txt"
        artifact.write_text("| data |\n")
        assert main(["--db", db_path, "record", "adhoc",
                     "--artifact", str(artifact), "--seed", "5"]) == 0
        assert main(["--db", db_path, "query"]) == 0
        assert main(["--db", db_path, "last"]) == 0
        out = capsys.readouterr().out
        assert "adhoc" in out
        assert "seed:        5" in out
        assert str(artifact) in out

    def test_query_empty_db(self, tmp_path, capsys):
        assert main(["--db", str(tmp_path / "e.sqlite"), "query"]) == 0
        assert "no recorded runs" in capsys.readouterr().out

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


class TestDiff:
    def test_diff_two_seeded_runs_is_bit_stable(self, tmp_path, capsys):
        db_path = str(tmp_path / "e.sqlite")
        with ExperimentDB(db_path) as db:
            db.record_run(_seeded_record(1, 100))
            db.record_run(_seeded_record(2, 140))
        assert main(["--db", db_path, "diff", "1", "2"]) == 0
        first = capsys.readouterr().out
        assert main(["--db", db_path, "diff", "1", "2"]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "seed: 1 -> 2" in first
        assert "different run_key" in first
        assert "tx.commits" in first and "(+10)" in first
        assert "cells" in first and "cycles" in first

    def test_diff_identical_runs(self, tmp_path, capsys):
        db_path = str(tmp_path / "e.sqlite")
        with ExperimentDB(db_path) as db:
            db.record_run(_seeded_record(1, 100))
            db.record_run(_seeded_record(1, 100))
        assert main(["--db", db_path, "diff", "1", "2"]) == 0
        out = capsys.readouterr().out
        assert "identical run_key" in out
        assert "all identical" in out


class TestVerify:
    def test_verify_catches_tampering(self, tmp_path, capsys):
        db_path = str(tmp_path / "e.sqlite")
        artifact = tmp_path / "out.txt"
        artifact.write_text("original\n")
        assert main(["--db", db_path, "record", "exp",
                     "--artifact", str(artifact)]) == 0
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
                         "query"]) == 0
        assert "no recorded runs" in capsys.readouterr().out
