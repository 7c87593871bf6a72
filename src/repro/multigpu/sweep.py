"""The multi-GPU survival sweep: variant × remote-fraction × link-latency.

Which STM variants *survive* cross-shard commits as remote traffic and
link latency grow?  Every cell runs the sharded ledger workload (``mg``)
on a 2+-device topology under one STM variant with the online sanitizer
armed and the serializability oracle checking every commit history, then
classifies the outcome:

* ``commit`` — completed, oracle + sanitizer clean;
* ``livelock`` / ``deadlock`` — the watchdog tripped (the progress
  pathologies of the paper's section 2.2, now induced by link-stretched
  lock hold times);
* ``serializability`` / ``sanitizer`` — correctness violations, which
  would mean a variant's protocol is actually broken by remoteness.

The per-variant outcome grid is the *survival map*
(``survival_map.json`` + a rendered ``survival_map.txt``), the
multi-GPU analogue of the service layer's collapse-knee artifacts.
Cells run through the shared sweep layer (:mod:`repro.harness.sweep`)
exactly like every other sweep: journaled, resumable, bit-identical on
replay.
"""

from repro.harness import configs
from repro.harness.parallel import Cell, capture, cell
from repro.harness.runner import run_workload
from repro.harness.sweep import failed_cell, run_sweep
from repro.workloads import make_workload

#: default artifact directory of the ``multigpu`` CLI target
DEFAULT_OUT_DIR = "multigpu-artifacts"

#: survival-map cell letters, in severity order
OUTCOME_LETTERS = {
    "commit": "C",
    "livelock": "L",
    "deadlock": "D",
    "sanitizer": "S",
    "serializability": "X",
    "failed": "F",
}


@cell
class MgJobSpec(Cell):
    """One survival-map cell: picklable, journal-fingerprintable."""

    key: object
    variant: str
    remote_frac: float
    link_latency: int
    devices: int = 2
    skew: float = 0.6
    shard_skew: float = 0.0
    seed: int = 2026
    num_accounts: int = 256
    grid: int = 4
    block: int = 16
    txs_per_thread: int = 2
    num_locks: int = 64
    max_steps: int = 400_000
    telemetry: bool = False
    gpu_overrides: dict = None
    fault_plan: list = None

    workload = "mg"


def classify_outcome(outcome):
    """Map a captured :class:`~repro.harness.runner.RunResult` to a cell
    kind."""
    if outcome.failure is None:
        return "commit"
    if outcome.failure == "progress":
        return "livelock" if outcome.livelock else "deadlock"
    return outcome.failure  # "serializability" | "sanitizer"


def _survive(spec, telemetry):
    # imported here: the faults package must not load with the CLI
    from repro.faults.sanitizer import StmSanitizer

    gpu = configs.explore_gpu(max_steps=spec.max_steps, warp_size=8,
                              devices=spec.devices,
                              link_model="uniform:%d" % spec.link_latency)
    outcome = run_workload(
        make_workload(
            "mg",
            num_accounts=spec.num_accounts,
            grid=spec.grid,
            block=spec.block,
            txs_per_thread=spec.txs_per_thread,
            skew=spec.skew,
            shard_skew=spec.shard_skew,
            remote_frac=spec.remote_frac,
            seed=spec.seed,
        ),
        spec.variant,
        configs.override_gpu(gpu, spec.gpu_overrides),
        "rr",
        num_locks=spec.num_locks,
        stm_overrides=dict(
            egpgv_max_blocks=spec.grid,
            egpgv_max_threads_per_block=spec.block,
        ),
        capture=True,
        telemetry=telemetry,
        sanitizer=StmSanitizer(),
        fault_plan=spec.fault_plan,
    )
    counters = outcome.counters
    return {
        "key": spec.key,
        "variant": spec.variant,
        "remote_frac": spec.remote_frac,
        "link_latency": spec.link_latency,
        "devices": spec.devices,
        "outcome": classify_outcome(outcome),
        "commits": outcome.commits,
        "aborts": outcome.aborts,
        "abort_rate": round(outcome.abort_rate, 6),
        "cycles": outcome.cycles,
        "steps": outcome.steps,
        "checked": outcome.checked,
        "violations": len(outcome.violations),
        "remote_txs": counters.get("mg.tx.remote", 0),
        "local_txs": counters.get("mg.tx.local", 0),
        "remote_ops": counters.get("mg.remote.read", 0)
        + counters.get("mg.remote.write", 0)
        + counters.get("mg.remote.atomic", 0),
        "link_cycles": counters.get("mg.link.cycles", 0),
    }


def execute_mg_job(spec):
    """Run one survival cell; never raises.  A watchdog trip is *data* (a
    livelock/deadlock cell), not a job failure."""
    return capture(spec, _survive)


def build_mg_specs(variants, remote_fracs, link_latencies, **fields):
    """The sweep's cell grid, ordered variant-major (deterministic);
    ``fields`` are the :class:`MgJobSpec` fields every cell shares."""
    return [
        MgJobSpec("%s/rf%g/lat%d" % (variant, frac, latency), variant, frac,
                  latency, **fields)
        for variant in variants
        for frac in remote_fracs
        for latency in link_latencies
    ]


def render_survival_map(summary):
    """Render the per-variant outcome grids as a fixed-width text map."""
    fracs = summary["remote_fracs"]
    latencies = summary["link_latencies"]
    cells = {cell["key"]: cell for cell in summary["cells"]}
    lines = [
        "multi-GPU survival map: devices=%d, %d cell(s)"
        % (summary["devices"], len(summary["cells"])),
        "legend: " + "  ".join(
            "%s=%s" % (letter, kind)
            for kind, letter in sorted(
                OUTCOME_LETTERS.items(), key=lambda item: item[1]
            )
        ),
    ]
    header = "  %-10s | " % "lat \\ rf" + " ".join(
        "%6g" % frac for frac in fracs
    )
    for variant in summary["variants"]:
        lines.append("")
        lines.append("%s:" % variant)
        lines.append(header)
        for latency in latencies:
            row = []
            for frac in fracs:
                cell = cells.get("%s/rf%g/lat%d" % (variant, frac, latency))
                if cell is None or cell.get("failed"):
                    row.append("F")
                else:
                    row.append(OUTCOME_LETTERS.get(cell["outcome"], "?"))
            lines.append(
                "  %-10d | " % latency + " ".join("%6s" % r for r in row)
            )
    return "\n".join(lines) + "\n"


#: the shared cell fields the survival-map summary states
SUMMARY_FIELDS = ("devices", "seed", "skew", "shard_skew", "num_accounts",
                  "grid", "block", "txs_per_thread", "max_steps")


def run_multigpu_sweep(variants, remote_fracs, link_latencies, jobs=None,
                       supervise=None, journal=None, metrics=None,
                       recorder=None, **fields):
    """Run the survival sweep; returns a
    :class:`~repro.harness.sweep.SweepReport` rendering the survival map.

    ``fields`` are the :class:`MgJobSpec` fields every cell shares; the
    rest go to :func:`~repro.harness.sweep.run_sweep`, and a ``metrics``
    registry also turns on per-cell telemetry.
    """
    proto = MgJobSpec(None, None, None, None, **fields)

    def summarize(specs, results):
        summary = {name: getattr(proto, name) for name in SUMMARY_FIELDS}
        summary.update(
            experiment="multigpu-survival",
            variants=list(variants),
            remote_fracs=list(remote_fracs),
            link_latencies=list(link_latencies),
            cells=[
                failed_cell(spec, result) if result.failed else result.run
                for spec, result in zip(specs, results)
            ],
        )
        return summary

    return run_sweep(
        build_mg_specs(variants, remote_fracs, link_latencies,
                       telemetry=metrics is not None, **fields),
        execute_mg_job, summarize,
        lambda report: render_survival_map(report.summary),
        ("survival_map.json", "survival_map.txt"), jobs=jobs,
        supervise=supervise, journal=journal, metrics=metrics,
        recorder=recorder,
    )
