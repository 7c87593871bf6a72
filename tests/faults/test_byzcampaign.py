"""Byzantine campaign: matrix shape, determinism, resume, multi-device."""

import json
import os

import pytest

from repro.faults.byzcampaign import (
    _attack_cell,
    _byz_jobs,
    default_spec_text,
    device_lane_tids,
    render_byz_matrix,
    run_byz_campaign,
)
from repro.harness import configs, parallel
from tests.harness.misbehave import Event, Misbehaving
from tests.helpers import stored_summary

FAST = dict(behaviors=["lie_validation", "lock_hoard"],
            variants=["cgl", "hv-sorting"])


@pytest.fixture(scope="module")
def small_matrix():
    return run_byz_campaign(**FAST).summary


class TestMatrixShape:
    def test_cells_cover_every_behavior_and_variant(self, small_matrix):
        assert sorted(small_matrix["cells"]) == sorted(FAST["behaviors"])
        for behavior in FAST["behaviors"]:
            assert sorted(small_matrix["cells"][behavior]) == sorted(
                FAST["variants"]
            )

    def test_every_cell_contained_or_detected(self, small_matrix):
        for row in small_matrix["cells"].values():
            for cell in row.values():
                assert cell["classification"] in (
                    "immune", "contained", "detected",
                )

    def test_containment_differs_across_variants(self, small_matrix):
        # lie_validation: no validation phase to lie in on CGL, a real
        # (contained) lie on the hash-table-validation variants
        row = small_matrix["cells"]["lie_validation"]
        assert row["cgl"]["classification"] == "immune"
        assert row["hv-sorting"]["classification"] == "contained"

    def test_detected_cells_carry_finite_latency(self, small_matrix):
        row = small_matrix["cells"]["lock_hoard"]
        for cell in row.values():
            assert cell["classification"] == "detected"
            assert cell["detected_by"] == "lock_leak"
            assert cell["detection_latency"] >= 0

    def test_baselines_clean_and_ok(self, small_matrix):
        assert sorted(small_matrix["baselines"]) == sorted(FAST["variants"])
        for cell in small_matrix["baselines"].values():
            assert cell["classification"] == "contained"
            assert cell["failure"] is None
        assert small_matrix["ok"] is True
        assert small_matrix["escapees"] == []

    def test_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="unknown behavior"):
            run_byz_campaign(behaviors=["crash"], variants=["cgl"])
        with pytest.raises(ValueError, match="unknown variant"):
            run_byz_campaign(behaviors=["lock_hoard"], variants=["zzz"])


class TestErrorCells:
    def test_crashed_cell_is_an_error_escapee(self, monkeypatch):
        """A cell whose executor raises is an ``error`` cell, never a
        contained one: it is an escapee and fails the matrix."""
        explore = parallel._explore

        def crash_armed(cell, telemetry=None):
            if cell.fault_plan:
                raise RuntimeError("simulated crash")
            return explore(cell, telemetry)

        monkeypatch.setattr(parallel, "_explore", crash_armed)
        matrix = run_byz_campaign(behaviors=["lock_hoard"],
                                  variants=["cgl"]).summary
        cell = matrix["cells"]["lock_hoard"]["cgl"]
        assert cell["classification"] == "error"
        assert "simulated crash" in cell["error"]
        assert matrix["baselines"]["cgl"]["classification"] == "contained"
        assert matrix["escapees"] == ["lock_hoard/cgl"]
        assert matrix["ok"] is False
        assert "ERROR" in render_byz_matrix(matrix)


class TestExpdb:
    def test_recorded_run_has_sim_cycles_and_cell_summaries(self, tmp_path):
        """Each byz cell returns its captured ``RunResult``, so the
        recorded run sums simulated cycles and keeps one per-cell summary
        per cell, like every other sweep of ``RunResult`` s."""
        from repro.expdb import ExperimentDB, SweepRecorder

        db_path = str(tmp_path / "e.sqlite")
        report = run_byz_campaign(
            behaviors=["lock_hoard"], variants=["cgl"],
            recorder=SweepRecorder(db_path, "byz-campaign"))
        keys = [spec.key for spec in report.specs]
        assert keys == ["lock_hoard/cgl", "baseline/cgl"]
        with ExperimentDB(db_path) as db:
            [run] = db.runs(experiment="byz-campaign")
            assert run["sim_cycles"] == sum(r.run.cycles
                                            for r in report.results) > 0
        cells = stored_summary(db_path, run["id"])["cells"]
        assert sorted(cells) == sorted(keys)
        for key, result in zip(keys, report.results):
            assert cells[key] == result.run.as_summary()


class TestDeterminism:
    def test_bit_identical_across_jobs(self, small_matrix):
        wide = run_byz_campaign(jobs=2, **FAST).summary
        assert json.dumps(wide, sort_keys=True) == json.dumps(
            small_matrix, sort_keys=True
        )


class TestMultiDevice:
    def test_device_lane_tids_follow_block_placement(self):
        # explore geometry: 2 SMs per device; blocks round-robin over the
        # 4 SMs of a 2-device topology, so blocks 2 and 3 land on device 1
        assert device_lane_tids(4, 16, 1, 2, 2) == (32, 48)
        assert device_lane_tids(4, 16, 0, 2, 2) == (0, 16)

    def test_byzantine_remote_device_cell(self):
        matrix = run_byz_campaign(
            behaviors=["torn_publish"], variants=["hv-sorting"],
            devices=2, params=dict(objects=4, grid=4, block=16),
        ).summary
        cell = matrix["cells"]["torn_publish"]["hv-sorting"]
        assert matrix["byz_device"] == 1
        # the remote liar's spec pins the lanes that live on device 1
        assert cell["spec"] == "torn_publish:tids=32+48"
        assert cell["classification"] in ("contained", "detected")
        assert matrix["ok"] is True

    def test_empty_remote_lane_set_is_an_error(self):
        with pytest.raises(ValueError, match="no byzantine lanes"):
            run_byz_campaign(
                behaviors=["torn_publish"], variants=["cgl"],
                devices=2, params=dict(objects=4, grid=2, block=16),
            )


class TestCli:
    def test_main_writes_matrix_and_exits_zero(self, tmp_path, capsys):
        from repro.faults.byzcampaign import main

        out = str(tmp_path / "byz")
        rc = main(["--behaviors", "lock_hoard", "--variants", "cgl",
                   "--out", out])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "matrix ok: yes" in printed
        matrix = json.load(open(os.path.join(out, "byz_matrix.json")))
        assert matrix["cells"]["lock_hoard"]["cgl"]["classification"] == (
            "detected"
        )

    def test_timeout_with_one_worker_is_a_usage_error(self, capsys):
        from repro.faults.byzcampaign import main

        with pytest.raises(SystemExit) as exc:
            main(["--behaviors", "lock_hoard", "--variants", "cgl",
                  "--timeout", "5"])
        assert exc.value.code == 2
        assert "--timeout needs --jobs 2" in capsys.readouterr().err

    def test_dispatcher_knows_byz(self):
        from repro.__main__ import _SUBCOMMANDS

        assert "byz" in {name for name, _m, _d in _SUBCOMMANDS}


class TestChaosFault:
    def test_fault_event_joins_the_cell_plan_and_retry_reproduces_it(
            self, small_matrix, tmp_path):
        """A stalled attempt of a byzantine cell arms its extra fault
        beside the cell's own; the clean retry reproduces the matrix."""
        params = configs.test_workload_params("cns")
        spec = default_spec_text("lie_validation", params["block"])
        behavior, job = _byz_jobs(["lie_validation"], ["hv-sorting"], "cns",
                                  params, 1, 40, None, 2, 16)[0]
        assert (behavior, job.key, job.fault_plan) == (
            "lie_validation", "lie_validation/hv-sorting", [spec])
        fault = "stale_read:region=cns_objects"
        attempts = []

        def recording(cell):
            result = parallel.execute_explore(cell)
            attempts.append((cell.fault_plan, len(result.run.fired)))
            return result

        stalling = Misbehaving(tmp_path, {job.key: Event(
            "stall", faults=(fault,), max_steps=None)}, recording)
        [result] = parallel.run_jobs(
            [job], jobs=1, executor=stalling, retries=1,
            sleep=lambda _delay: None,
        )
        (faulted, faulted_fired), (clean, clean_fired) = attempts
        assert faulted == [spec, fault] and clean == [spec]
        assert faulted_fired > clean_fired  # the stale reads fired too
        assert _attack_cell(behavior, job, result.run) == small_matrix[
            "cells"]["lie_validation"]["hv-sorting"]
