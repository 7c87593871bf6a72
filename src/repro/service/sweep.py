"""The service benchmark driver: offered load × STM variant × skew sweeps.

Each cell of the sweep is one :class:`ServiceJobSpec` — a picklable,
fingerprintable description of one open- or closed-loop service run.  The
cells run through :func:`repro.harness.sweep.run_sweep` with
:func:`execute_service_job` as the executor, so they get the worker
pool, retries, the journal and the experiment-DB recorder exactly like every other
sweep (docs/resilience.md, "The sweep layer"): a sweep killed mid-run and
resumed against the same journal converges to a byte-identical summary
artifact, because every cell's outcome is a deterministic function of its
spec.

The deterministic artifact is ``service_summary.json`` — per-cell
throughput, goodput, shed counts, abort rate and latency percentiles in
simulated cycles, keyed and ordered by spec; wall-clock numbers go to
``run_info.json`` (see :func:`repro.harness.sweep.write_artifacts`).
"""

from repro.harness import configs
from repro.harness.parallel import Cell, capture, cell
from repro.harness.sweep import failed_cell, run_sweep
from repro.service.server import LedgerService, ServiceConfig

#: default artifact directory of the ``service`` CLI target
DEFAULT_OUT_DIR = "service-artifacts"


@cell
class ServiceJobSpec(Cell):
    """One service cell.  ``LedgerService`` has no fault seam, so a
    ``fault_plan`` (or a chaos ``fault`` event) is rejected."""

    key: object
    variant: str
    load: float
    skew: float = 0.8
    arrival: str = "poisson"
    seed: int = 7
    duration_cycles: int = 50_000
    num_accounts: int = 4096
    clients: int = 64
    think_mean: int = 2000
    service_overrides: dict = None
    stm_overrides: dict = None
    gpu_overrides: dict = None
    telemetry: bool = False
    timeline_dir: str = None
    verify: bool = True
    fault_plan: list = None

    workload = "lg-service"
    faultable = False


def _serve(spec, telemetry):
    service = LedgerService(
        spec.variant,
        num_accounts=spec.num_accounts,
        skew=spec.skew,
        gpu_config=configs.override_gpu(configs.bench_gpu(),
                                        spec.gpu_overrides),
        service_config=ServiceConfig.from_dict(spec.service_overrides),
        stm_overrides=spec.stm_overrides,
        telemetry=telemetry,
    )
    if spec.arrival == "closed":
        source = service.closed_loop_source(
            spec.clients, spec.seed, spec.think_mean, spec.duration_cycles
        )
    else:
        source = service.open_loop_source(
            spec.arrival, spec.seed, spec.load, spec.duration_cycles
        )
    outcome = service.run(source, spec.duration_cycles, verify=spec.verify)
    outcome.arrival = spec.arrival
    outcome.load = spec.load
    outcome.seed = spec.seed
    return outcome


def execute_service_job(spec):
    """Run one service cell in the current process; never raises.

    Module-level so it pickles into the pool's workers.
    """
    return capture(spec, _serve)


def build_specs(variants, loads, skews, **fields):
    """The sweep's cell grid, ordered variant-major (deterministic);
    ``fields`` are the :class:`ServiceJobSpec` fields every cell shares.

    Closed-loop cells have no offered-load axis (arrivals are completion-
    driven), so the grid collapses to variants × skews with the client
    count in the key instead.
    """
    proto = ServiceJobSpec(None, None, None, **fields)
    closed = proto.arrival == "closed"
    specs = []
    for variant in variants:
        for skew in skews:
            for load in (None,) if closed else loads:
                if closed:
                    key = "%s/closed/clients%d/skew%g" % (
                        variant, proto.clients, skew)
                else:
                    key = "%s/%s/load%g/skew%g" % (
                        variant, proto.arrival, load, skew)
                specs.append(proto.clone(key=key, variant=variant, load=load,
                                         skew=skew))
    return specs


def render_service_sweep(report):
    """The per-cell offered/goodput/shed/abort/latency table."""
    lines = [
        "ledger service sweep: %d cell(s)" % len(report.specs),
        "  %-34s %9s %9s %7s %7s %8s %8s %8s"
        % ("cell", "offered", "goodput", "shed", "abort%", "p50", "p95", "p99"),
    ]
    for spec, result in zip(report.specs, report.results):
        if result.failed:
            lines.append("  %-34s FAILED: %s" % (spec.key, result.brief_error()))
            continue
        cell = result.run.as_summary()
        shed = cell["shed"]["admission"] + cell["shed"]["queue_full"]
        latency = cell["latency_cycles"]
        lines.append(
            "  %-34s %9d %9.3f %7d %6.1f%% %8s %8s %8s"
            % (
                spec.key, cell["offered"], cell["goodput_per_kcycle"],
                shed, 100 * cell["abort_rate"], latency["p50"],
                latency["p95"], latency["p99"],
            )
        )
    return "\n".join(lines)


def run_service_sweep(variants, loads, skews=(0.8,), jobs=None,
                      retries=0, timeout=None, journal=None, metrics=None,
                      recorder=None, **fields):
    """Run the full sweep; returns a :class:`~repro.harness.sweep.SweepReport`.

    ``fields`` are the :class:`ServiceJobSpec` fields every cell shares;
    the rest go to :func:`~repro.harness.sweep.run_sweep`, and a
    ``metrics`` registry also turns on per-cell telemetry.
    """
    proto = ServiceJobSpec(None, None, None, **fields)

    def summarize(specs, results):
        return {
            "experiment": "ledger-service",
            "arrival": proto.arrival,
            "seed": proto.seed,
            "duration_cycles": proto.duration_cycles,
            "num_accounts": proto.num_accounts,
            "cells": [
                failed_cell(spec, result) if result.failed
                else result.run.as_summary()
                for spec, result in zip(specs, results)
            ],
        }

    return run_sweep(
        build_specs(variants, loads, skews, telemetry=metrics is not None,
                    **fields),
        execute_service_job, summarize, render_service_sweep,
        ("service_summary.json", None), jobs=jobs, retries=retries,
        timeout=timeout, journal=journal, metrics=metrics, recorder=recorder,
    )
