"""The sweep layer's contract, held by every sweep kind.

Each kind — the figure sweeps, the ledger service, the multi-device
survival map, the byzantine and the mutant campaigns (plus the fuzzer's
cells where the supervisor's overlays are concerned) — declares a
:class:`~repro.harness.parallel.Cell` and runs through
:func:`~repro.harness.sweep.run_sweep`, so one set of tests pins what
they all promise: pickling, cloning, ``--jobs`` independence, journal
resume, and the supervisor's cycle-budget and chaos-fault overlays.
"""

import json
import os
import pickle

import pytest

from repro.faults.byzcampaign import ByzJob, execute_byz_job, run_byz_campaign
from repro.faults.campaign import (
    BASE_PARAMS,
    CampaignJob,
    execute_campaign_job,
    run_campaign,
)
from repro.harness import configs
from repro.harness.experiments import run_figure
from repro.harness.journal import spec_fingerprint
from repro.harness.parallel import JobSpec, execute_job
from repro.harness.supervisor import ChaosPlan, SupervisorConfig, run_supervised
from repro.multigpu.sweep import MgJobSpec, execute_mg_job, run_multigpu_sweep
from repro.sched.fuzz import FuzzJobSpec, execute_fuzz_job
from repro.service.sweep import (
    ServiceJobSpec,
    execute_service_job,
    run_service_sweep,
)
from repro.telemetry import MetricRegistry

SERVICE = dict(duration_cycles=15_000, num_accounts=128,
               service_overrides={"num_locks": 64})
MULTIGPU = dict(num_accounts=128, block=8, txs_per_thread=1)


def _figure(**sweep):
    return run_figure("fig5", quick=True, **sweep).render()


def _service(**sweep):
    return run_service_sweep(("cgl", "vbv"), (2.0,), **SERVICE, **sweep).summary


def _multigpu(**sweep):
    return run_multigpu_sweep(("cgl", "vbv"), (0.0, 0.5), (40,), **MULTIGPU,
                              **sweep).summary


def _byz(**sweep):
    return run_byz_campaign(behaviors=["lie_validation"], variants=["cgl"],
                            **sweep).summary


def _inject(**sweep):
    return run_campaign(mutants=["clock-stuck"], checkers=("oracle",),
                        **sweep).summary


#: kind -> (one cell, its sweep driver)
KINDS = {
    "figure": (JobSpec("fig", "ra", configs.test_workload_params("ra"),
                       "hv-sorting", num_locks=64), _figure),
    "service": (ServiceJobSpec("svc", "vbv", 2.0, **SERVICE), _service),
    "multigpu": (MgJobSpec("mg", "cgl", 0.3, 40, **MULTIGPU), _multigpu),
    "byz": (ByzJob(None, "hv-sorting", "cns",
                   configs.test_workload_params("cns"), ""), _byz),
    "inject": (CampaignJob(None, "optimized", "oracle", "ra", BASE_PARAMS, 1),
               _inject),
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
        overrides = {"max_steps": 77}
        budgeted = spec.clone(gpu_overrides=overrides)
        assert budgeted.gpu_overrides == {"max_steps": 77}
        assert spec_fingerprint(budgeted) != spec_fingerprint(spec)
        # containers are copied, never aliased
        overrides["max_steps"] = 78
        budgeted.clone().gpu_overrides["max_steps"] = 79
        assert budgeted.gpu_overrides == {"max_steps": 77}
        assert spec.gpu_overrides is None
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


def _livelocked(result):
    return result.failed and result.failure.category in ("livelock", "deadlock")


#: kind -> (one cell, its executor, "the watchdog tripped" on its result)
OVERLAY_KINDS = {
    "figure": (KINDS["figure"][0], execute_job, _livelocked),
    "service": (KINDS["service"][0], execute_service_job, _livelocked),
    "multigpu": (KINDS["multigpu"][0], execute_mg_job,
                 lambda r: r.run["outcome"] in ("livelock", "deadlock")),
    "byz": (KINDS["byz"][0], execute_byz_job,
            lambda r: r.run["failure"] == "progress"),
    "inject": (KINDS["inject"][0], execute_campaign_job,
               lambda r: r.run["detail"].startswith("progress")),
    "fuzz": (FuzzJobSpec(0, "rr", "ra", configs.test_workload_params("ra"),
                         "hv-sorting"), execute_fuzz_job,
             lambda outcome: outcome.failure == "progress"),
}

FAULT = "warp_stall:sm=0,warp=0,after=0,duration=5"


@pytest.mark.parametrize("kind", sorted(OVERLAY_KINDS))
class TestSupervisorOverlays:
    def test_cycle_budget_trips_the_watchdog(self, kind):
        spec, executor, tripped = OVERLAY_KINDS[kind]
        [result] = run_supervised([spec], jobs=1, executor=executor,
                                  config=SupervisorConfig(cycle_budget=10))
        assert tripped(result)

    def test_fault_event_arms_or_is_rejected_up_front(self, kind):
        spec, executor, _tripped = OVERLAY_KINDS[kind]
        seen = []

        def recording(cell):
            seen.append(cell.fault_plan)
            return executor(cell)

        chaos = ChaosPlan().add(spec.key, "fault", faults=[FAULT])
        registry = MetricRegistry()
        config = SupervisorConfig(max_retries=1, backoff_base=0)
        if not spec.faultable:
            with pytest.raises(ValueError, match=type(spec).__name__):
                run_supervised([spec], jobs=1, executor=recording,
                               config=config, chaos=chaos)
            assert seen == []
            return
        [result] = run_supervised([spec], jobs=1, executor=recording,
                                  config=config, chaos=chaos,
                                  metrics=registry)
        assert seen == [[FAULT], None]  # faulted attempt, then clean retry
        assert not getattr(result, "failed", False)
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
