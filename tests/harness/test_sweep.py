"""The sweep layer's contract, held by every sweep kind.

Each kind — the figure sweeps, the ledger service, and the captured-run
cell the fuzzer, the mutant and byzantine campaigns and the multi-device
survival map share — declares a
:class:`~repro.harness.parallel.Cell` and runs through
:func:`~repro.harness.sweep.run_sweep`, so one set of tests pins what
they all promise: pickling, cloning, stable fingerprints, ``--jobs``
independence, journal resume, a ``max_steps`` override tripping the
watchdog, and the chaos-fault overlay.
"""

import json
import os
import pickle
import subprocess
import sys

import pytest

from repro.faults.byzcampaign import _byz_jobs, run_byz_campaign
from repro.faults.campaign import BASE_PARAMS, run_campaign
from repro.harness import configs
from repro.harness.experiments import run_figure
from repro.harness.journal import spec_fingerprint
from repro.harness.parallel import (
    ExploreCell,
    JobSpec,
    execute_explore,
    execute_job,
    run_jobs,
)
from repro.harness.supervisor import ChaosPlan
from repro.multigpu.sweep import build_mg_specs, run_multigpu_sweep
from repro.sched.fuzz import fuzz_schedules
from repro.service.sweep import (
    ServiceJobSpec,
    execute_service_job,
    run_service_sweep,
)
from repro.telemetry import MetricRegistry

SERVICE = dict(duration_cycles=15_000, num_accounts=128,
               service_overrides={"num_locks": 64})
MULTIGPU = dict(num_accounts=128, block=8, txs_per_thread=1)
MULTIGPU_GRID = (("cgl", "vbv"), (0.0, 0.5), (40,))
BYZ = dict(behaviors=["lie_validation"], variants=["cgl"])


def _figure(**sweep):
    return run_figure("fig5", quick=True, **sweep).render()


def _service(**sweep):
    return run_service_sweep(("cgl", "vbv"), (2.0,), **SERVICE, **sweep).summary


def _multigpu(**sweep):
    return run_multigpu_sweep(*MULTIGPU_GRID, **MULTIGPU, **sweep).summary


def _byz(**sweep):
    return run_byz_campaign(**BYZ, **sweep).summary


def _inject(**sweep):
    return run_campaign(mutants=["clock-stuck"], checkers=("oracle",),
                        **sweep).summary


def _fuzz(**sweep):
    return fuzz_schedules("ra", configs.test_workload_params("ra"),
                          ["cgl", "hv-sorting"], seeds=1,
                          policies=("random",), **sweep).summary


#: kind -> (one cell, its sweep driver)
KINDS = {
    "figure": (JobSpec("fig", "ra", configs.test_workload_params("ra"),
                       "hv-sorting", num_locks=64), _figure),
    "service": (ServiceJobSpec("svc", "vbv", 2.0, **SERVICE), _service),
    # the first cell of each driver's grid
    "multigpu": (build_mg_specs(*MULTIGPU_GRID, **MULTIGPU)[0], _multigpu),
    "byz": (_byz_jobs(BYZ["behaviors"], BYZ["variants"], "cns",
                      configs.test_workload_params("cns"), 1, 40, None, 2,
                      16)[0][1], _byz),
    "inject": (ExploreCell("ra", BASE_PARAMS, "optimized", "rr",
                           key="baseline/optimized/sanitizer", sanitize=True),
               _inject),
    "fuzz": (ExploreCell("ra", configs.test_workload_params("ra"),
                         "hv-sorting", "random:0", mutant="skip-revalidation",
                         record=True), _fuzz),
}


@pytest.mark.parametrize("kind", sorted(KINDS))
class TestSweepContract:
    def test_pickle_round_trip(self, kind):
        spec = KINDS[kind][0]
        revived = pickle.loads(pickle.dumps(spec))
        assert type(revived) is type(spec)
        assert revived.__getstate__() == spec.__getstate__()
        assert spec_fingerprint(revived) == spec_fingerprint(spec)

    def test_clone_keeps_fingerprint_and_applies_updates(self, kind):
        spec = KINDS[kind][0]
        assert spec_fingerprint(spec.clone()) == spec_fingerprint(spec)
        original = pickle.loads(pickle.dumps(spec.gpu_overrides))
        overrides = {"max_steps": 77}
        budgeted = spec.clone(gpu_overrides=overrides)
        assert budgeted.gpu_overrides == {"max_steps": 77}
        assert spec_fingerprint(budgeted) != spec_fingerprint(spec)
        # containers are copied, never aliased
        overrides["max_steps"] = 78
        budgeted.clone().gpu_overrides["max_steps"] = 79
        assert budgeted.gpu_overrides == {"max_steps": 77}
        assert spec.gpu_overrides == original
        assert spec.key is not None

    def test_jobs_width_and_journal_resume(self, kind, tmp_path):
        sweep = KINDS[kind][1]
        serial = sweep(jobs=1)
        assert sweep(jobs=2) == serial
        # same flags both times: metrics turn on per-cell telemetry, which
        # the journal fingerprints
        journal = str(tmp_path / "sweep.journal")
        for registry in (MetricRegistry(), MetricRegistry()):
            assert sweep(jobs=1, journal=journal, metrics=registry) == serial
        counters = registry.as_dict()["counters"]
        assert counters.get("supervisor.jobs.executed", 0) == 0
        assert counters["supervisor.jobs.resumed"] == \
            counters["supervisor.jobs.total"]


def test_fingerprint_is_stable_across_interpreters():
    """A cell's fingerprint is plain data: a fresh interpreter building
    the same cells computes the same journal keys (a callable field would
    fingerprint by its ``repr``, which names a memory address)."""
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    code = (
        "from repro.harness.journal import spec_fingerprint\n"
        "from tests.harness.test_sweep import KINDS\n"
        "for kind in sorted(KINDS):\n"
        "    print(kind, spec_fingerprint(KINDS[kind][0]))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(root, "src"), root]))
    out = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                         capture_output=True, text=True, check=True).stdout
    assert KINDS["fuzz"][0].mutant is not None
    assert out.split() == [item for kind in sorted(KINDS) for item in
                           (kind, spec_fingerprint(KINDS[kind][0]))]


def _livelocked(result):
    return result.failed and result.failure.category in ("livelock", "deadlock")


#: kind -> (one cell, its executor, "the watchdog tripped" on its result)
OVERLAY_KINDS = {
    "figure": (KINDS["figure"][0], execute_job, _livelocked),
    "service": (KINDS["service"][0], execute_service_job, _livelocked),
    "multigpu": (KINDS["multigpu"][0], execute_explore,
                 lambda r: r.run.failure == "progress"),
    "byz": (KINDS["byz"][0], execute_explore,
            lambda r: r.run.failure == "progress"),
    "inject": (KINDS["inject"][0], execute_explore,
               lambda r: r.run.failure == "progress"),
    "fuzz": (KINDS["fuzz"][0], execute_explore,
             lambda r: r.run.failure == "progress"),
}

FAULT = "warp_stall:sm=0,warp=0,after=0,duration=5"


def _skip_sleep(_):
    """Backoff without the wait."""


@pytest.mark.parametrize("kind", sorted(OVERLAY_KINDS))
class TestSupervisorOverlays:
    def test_max_steps_override_trips_the_watchdog(self, kind):
        """Every kind's ``gpu_overrides`` reach its device: a tight
        ``max_steps`` trips the watchdog, classified per kind."""
        spec, executor, tripped = OVERLAY_KINDS[kind]
        overrides = dict(spec.gpu_overrides or {}, max_steps=10)
        [result] = run_jobs([spec.clone(gpu_overrides=overrides)], jobs=1,
                            executor=executor)
        assert tripped(result)

    def test_fault_event_arms_or_is_rejected_up_front(self, kind):
        spec, executor, _tripped = OVERLAY_KINDS[kind]
        seen = []

        def recording(cell):
            seen.append(cell.fault_plan)
            return executor(cell)

        chaos = ChaosPlan().add(spec.key, "fault", faults=[FAULT])
        registry = MetricRegistry()
        if not spec.faultable:
            with pytest.raises(ValueError, match=type(spec).__name__):
                run_jobs([spec], jobs=1, executor=recording, retries=1,
                         chaos=chaos)
            assert seen == []
            return
        [result] = run_jobs([spec], jobs=1, executor=recording, retries=1,
                            chaos=chaos, metrics=registry, sleep=_skip_sleep)
        # faulted attempt (the event's spec joins the cell's own plan),
        # then a clean retry on the cell's own plan
        assert seen == [(spec.fault_plan or []) + [FAULT], spec.fault_plan]
        assert not result.failed
        assert registry.as_dict()["counters"]["supervisor.retries"] == 1


def test_unfaultable_cell_refuses_a_fault_plan():
    spec = KINDS["service"][0].clone(fault_plan=[FAULT])
    result = execute_service_job(spec)
    assert result.failed
    assert "ServiceJobSpec cells have no fault seam" in result.error


def test_inject_records_expdb_run_and_metrics(tmp_path, capsys):
    from repro.expdb import ExperimentDB
    from repro.harness.__main__ import main

    db_path = str(tmp_path / "exp.sqlite")
    metrics_path = str(tmp_path / "metrics.json")
    out = str(tmp_path / "out")
    assert main(["inject", "--mutants", "clock-stuck", "--checkers",
                 "oracle,sanitizer", "--jobs", "1", "--retries", "1",
                 "--expdb", db_path, "--metrics", metrics_path,
                 "--out", out]) == 0
    db = ExperimentDB(db_path)
    runs = db.runs(experiment="inject")
    assert len(runs) == 1
    keys = [spec["key"] for spec in db.run_specs(runs[0]["id"])]
    assert "None" not in keys and len(set(keys)) == len(keys) == 4
    with open(metrics_path) as handle:
        counters = json.load(handle)["counters"]
    assert counters["supervisor.jobs.total"] == 4
    assert os.path.exists(os.path.join(out, "efficacy_matrix.json"))
