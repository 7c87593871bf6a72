"""The survival sweep end to end: cells, classification, artifacts,
determinism across worker counts, and experiment-DB recording."""

import json
import os

import pytest

from repro.multigpu.cli import main as multigpu_main
from repro.harness.parallel import execute_explore
from repro.multigpu.sweep import (
    build_mg_specs,
    classify_outcome,
    render_survival_map,
    run_multigpu_sweep,
    survival_cell,
)


def _survive(variant, frac, latency, **fields):
    """One grid point's cell run and reduced to its survival-map entry."""
    [spec] = build_mg_specs((variant,), (frac,), (latency,), **fields)
    result = execute_explore(spec)
    assert not result.failed, result.error
    return survival_cell(spec.key, (variant, frac, latency), 2, result.run)


class TestSpecs:
    def test_grid_is_variant_major_and_deterministic(self):
        specs = build_mg_specs(("cgl", "vbv"), (0.0, 0.5), (40, 160))
        keys = [spec.key for spec in specs]
        assert keys == [
            "cgl/rf0/lat40", "cgl/rf0/lat160",
            "cgl/rf0.5/lat40", "cgl/rf0.5/lat160",
            "vbv/rf0/lat40", "vbv/rf0/lat160",
            "vbv/rf0.5/lat40", "vbv/rf0.5/lat160",
        ]
        again = build_mg_specs(("cgl", "vbv"), (0.0, 0.5), (40, 160))
        assert [s.key for s in again] == keys


class TestClassification:
    def test_commit_cell(self):
        cell = _survive("vbv", 0.3, 40)
        assert (cell["key"], cell["remote_frac"], cell["link_latency"]) == \
            ("vbv/rf0.3/lat40", 0.3, 40)
        assert cell["outcome"] == "commit"
        assert cell["commits"] > 0
        assert cell["violations"] == 0
        assert cell["remote_txs"] > 0
        assert cell["link_cycles"] > 0

    def test_watchdog_trip_is_data_not_failure(self):
        """A starved budget classifies as livelock/deadlock; the job
        itself succeeds — survival maps need the cell, not a traceback."""
        cell = _survive("vbv", 0.5, 400, max_steps=200)
        assert cell["outcome"] in ("livelock", "deadlock")

    def test_classify_outcome_mapping(self):
        class Fake:
            failure = None
            livelock = False

        assert classify_outcome(Fake()) == "commit"
        trip = Fake()
        trip.failure = "progress"
        trip.livelock = True
        assert classify_outcome(trip) == "livelock"
        trip.livelock = False
        assert classify_outcome(trip) == "deadlock"
        bad = Fake()
        bad.failure = "serializability"
        assert classify_outcome(bad) == "serializability"


class TestSweep:
    def test_summary_and_map_bit_identical_across_jobs(self):
        kwargs = dict(num_accounts=128, grid=4, block=8, txs_per_thread=1)
        serial = run_multigpu_sweep(("cgl", "optimized"), (0.0, 0.5), (40,),
                                    **kwargs)
        parallel = run_multigpu_sweep(("cgl", "optimized"), (0.0, 0.5), (40,),
                                      jobs=2, **kwargs)
        assert serial.ok and parallel.ok
        assert serial.summary == parallel.summary
        assert render_survival_map(serial.summary) == \
            render_survival_map(parallel.summary)

    def test_render_marks_every_cell(self):
        report = run_multigpu_sweep(("vbv",), (0.0,), (40, 400),
                                    num_accounts=128, grid=4, block=8,
                                    txs_per_thread=1)
        rendered = report.render()
        assert "vbv:" in rendered
        assert "legend:" in rendered
        assert rendered.count("C") >= 2

    def test_failed_cell_is_summarized_and_rendered_f(self):
        """A cell whose job fails (its fault plan does not parse) is a
        ``failed`` summary entry and an ``F`` on the map."""
        report = run_multigpu_sweep(("vbv",), (0.0,), (40,),
                                    num_accounts=128, grid=4, block=8,
                                    txs_per_thread=1,
                                    fault_plan=["no_such_fault"])
        (cell,) = report.summary["cells"]
        assert cell["key"] == "vbv/rf0/lat40" and cell["failed"] is True
        assert "no_such_fault" in cell["failure"]
        assert not report.ok
        (row,) = [line for line in report.render().splitlines()
                  if line.lstrip().startswith("40 ")]
        assert row.split("|")[1].split() == ["F"]


class TestCli:
    def run_cli(self, tmp_path, name, extra=()):
        out_dir = str(tmp_path / name)
        argv = [
            "--variants", "cgl,vbv", "--remote-frac", "0,0.5",
            "--link-latency", "40", "--accounts", "128", "--block", "8",
            "--txs", "1", "--out", out_dir,
        ] + list(extra)
        assert multigpu_main(argv) == 0
        return out_dir

    def test_acceptance_artifacts_bit_identical(self, tmp_path, capsys):
        first = self.run_cli(tmp_path, "a")
        second = self.run_cli(tmp_path, "b", extra=["--jobs", "2"])
        with open(os.path.join(first, "survival_map.json"), "rb") as fh:
            first_bytes = fh.read()
        with open(os.path.join(second, "survival_map.json"), "rb") as fh:
            second_bytes = fh.read()
        assert first_bytes == second_bytes

        summary = json.loads(first_bytes)
        assert summary["experiment"] == "multigpu-survival"
        assert summary["devices"] == 2
        assert [cell["variant"] for cell in summary["cells"]] == \
            ["cgl", "cgl", "vbv", "vbv"]
        for cell in summary["cells"]:
            assert cell["outcome"] == "commit"
            assert cell["violations"] == 0
        # wall-clock stays out of the summary, in run_info.json
        assert b"wall" not in first_bytes
        assert os.path.exists(os.path.join(first, "run_info.json"))
        out = capsys.readouterr().out
        assert "survival_map.json" in out

    def test_metrics_artifact_validates(self, tmp_path):
        from repro.telemetry.validate import validate_file

        out_dir = self.run_cli(tmp_path, "tel",
                               extra=["--metrics", "--variants", "vbv"])
        assert "valid metrics" in validate_file(
            os.path.join(out_dir, "metrics.json"))

    def test_expdb_records_run_and_artifacts(self, tmp_path):
        from repro.expdb import ExperimentDB

        db_path = str(tmp_path / "exp.sqlite")
        out_dir = self.run_cli(tmp_path, "db",
                               extra=["--expdb", db_path,
                                      "--variants", "vbv"])
        db = ExperimentDB(db_path)
        runs = db.runs(experiment="multigpu-survival")
        assert len(runs) == 1
        run = runs[0]
        assert run["experiment"] == "multigpu-survival"
        artifacts = db.run_artifacts(run["id"])
        names = {os.path.basename(a["path"]) for a in artifacts}
        assert names == {"survival_map.json", "survival_map.txt"}

    def test_rejects_bad_flags(self):
        with pytest.raises(SystemExit):
            multigpu_main(["--variants", "warp-drive"])
        with pytest.raises(SystemExit):
            multigpu_main(["--devices", "1"])
        with pytest.raises(SystemExit):
            multigpu_main(["--remote-frac", "1.5"])


class TestServiceMultiDevice:
    def test_ledger_service_serves_from_two_devices(self, tmp_path):
        """Acceptance: the service layer on a 2-device topology is
        bit-identical across invocations and across --jobs settings."""
        from repro.service.cli import main as service_main

        def run(name, jobs):
            out_dir = str(tmp_path / name)
            assert service_main([
                "--variants", "vbv", "--load", "2",
                "--duration-cycles", "15000", "--accounts", "128",
                "--devices", "2", "--link", "uniform:60",
                "--jobs", jobs, "--out", out_dir,
            ]) == 0
            with open(os.path.join(out_dir,
                                   "service_summary.json"), "rb") as fh:
                return fh.read()

        first = run("a", "1")
        second = run("b", "2")
        assert first == second
        cell = json.loads(first)["cells"][0]
        assert cell["committed"] > 0
