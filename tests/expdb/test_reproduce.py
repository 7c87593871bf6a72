"""``python -m repro reproduce``: the recorded, journaled artifact bundle.

Kept to the two cheapest targets (fig5, table1 at quick geometry) so the
full reproduce loop — supervised sweep, journal, DB record, manifest —
is exercised in seconds.
"""

import json
import os

import pytest

from repro.expdb.db import ExperimentDB
from repro.expdb.reproduce import run_reproduce


class TestReproduce:
    def test_bundle_and_rerun_are_bit_identical(self, tmp_path):
        out = str(tmp_path / "bundle")
        db_path = str(tmp_path / "e.sqlite")

        manifest, failures = run_reproduce(
            out_dir=out, db_path=db_path, smoke=True, jobs=1,
            targets=["fig5"], quiet=True,
        )
        assert failures == []
        assert set(manifest) == {"fig5.txt"}
        first = json.load(open(os.path.join(out, "manifest.json")))
        first_txt = open(os.path.join(out, "fig5.txt")).read()
        assert "Figure 5" in first_txt
        assert os.path.exists(os.path.join(out, "MANIFEST.md"))
        assert os.path.exists(os.path.join(out, "report.md"))
        assert os.path.exists(os.path.join(out, "journals", "fig5.journal"))

        # second run resumes from the journal and reproduces byte-identical
        # artifacts + manifest, recording a second run on the same run_key
        manifest2, failures2 = run_reproduce(
            out_dir=out, db_path=db_path, smoke=True, jobs=1,
            targets=["fig5"], quiet=True,
        )
        assert failures2 == []
        assert json.load(open(os.path.join(out, "manifest.json"))) == first
        assert open(os.path.join(out, "fig5.txt")).read() == first_txt
        assert manifest2 == manifest

        with ExperimentDB(db_path) as db:
            runs = db.runs(experiment="fig5")
            assert len(runs) == 2
            assert runs[0]["run_key"] == runs[1]["run_key"]
            assert (db.run_specs(runs[0]["id"])
                    == db.run_specs(runs[1]["id"]))
            # the rerun served every job from the journal
            metrics = db.run_metrics(runs[0]["id"])
            assert metrics[("counter", "supervisor.jobs.executed")] == 0.0
            # both runs attached the rendered artifact, hashes intact
            for run in runs:
                assert db.verify_artifacts(run["id"]) == []

    def test_unknown_target_raises(self, tmp_path):
        with pytest.raises(ValueError):
            run_reproduce(out_dir=str(tmp_path), db_path=str(tmp_path / "e"),
                          targets=["nope"], quiet=True)

    def test_cli_smoke_exit_code(self, tmp_path, capsys):
        from repro.expdb.reproduce import main

        assert main(["--smoke", "--targets", "fig5",
                     "--out", str(tmp_path / "b"),
                     "--db", str(tmp_path / "e.sqlite")]) == 0
        out = capsys.readouterr().out
        assert "manifest" in out
        assert "expdb run" in out

    @pytest.mark.parametrize("targets,message", [
        (",", "--targets expects at least one name"),
        (" , ", "--targets expects at least one name"),
        ("fig5,fig9", "unknown target(s) fig9"),
    ])
    def test_cli_empty_or_unknown_targets_exit_2(self, targets, message,
                                                 tmp_path, capsys):
        from repro.expdb.reproduce import main

        out = tmp_path / "b"
        with pytest.raises(SystemExit) as exc:
            main(["--smoke", "--targets", targets, "--out", str(out),
                  "--db", str(tmp_path / "e.sqlite")])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_cli_bad_jobs_exit_2(self, tmp_path):
        from repro.expdb.reproduce import main

        with pytest.raises(SystemExit) as exc:
            main(["--smoke", "--jobs", "0", "--out", str(tmp_path / "b")])
        assert exc.value.code == 2
