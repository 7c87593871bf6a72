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
Each cell is one captured run
(:class:`~repro.harness.parallel.ExploreCell`, the cell ``fuzz``,
``sanitize``, ``inject`` and ``byz`` run too) through the shared sweep
layer (:mod:`repro.harness.sweep`): journaled, resumable, bit-identical
on replay.  The reduce builds each survival-map entry from its grid
point and the cell's ``RunResult``.
"""

import itertools

from repro.harness.parallel import ExploreCell, execute_explore
from repro.harness.sweep import failed_cell, run_sweep

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

#: the settings every survival cell shares, with their defaults
CELL_DEFAULTS = dict(
    devices=2,
    skew=0.6,
    shard_skew=0.0,
    seed=2026,
    num_accounts=256,
    grid=4,
    block=16,
    txs_per_thread=2,
    num_locks=64,
    max_steps=400_000,
    gpu_overrides=None,
    fault_plan=None,
)

#: the settings that are ``mg`` workload parameters
WORKLOAD_FIELDS = ("num_accounts", "grid", "block", "txs_per_thread", "skew",
                   "shard_skew", "seed")


def _settings(fields):
    """``fields`` over :data:`CELL_DEFAULTS`; an unknown name is a
    ``TypeError``."""
    unknown = sorted(set(fields) - set(CELL_DEFAULTS))
    if unknown:
        raise TypeError("unknown survival-cell setting(s): %s"
                        % ", ".join(unknown))
    return dict(CELL_DEFAULTS, **fields)


def classify_outcome(outcome):
    """Map a captured :class:`~repro.harness.runner.RunResult` to a cell
    kind."""
    if outcome.failure is None:
        return "commit"
    if outcome.failure == "progress":
        return "livelock" if outcome.livelock else "deadlock"
    return outcome.failure  # "serializability" | "sanitizer"


def _grid(variants, remote_fracs, link_latencies):
    """The sweep's grid points ``(variant, remote_frac, link_latency)``,
    variant-major (deterministic)."""
    return list(itertools.product(variants, remote_fracs, link_latencies))


def build_mg_specs(variants, remote_fracs, link_latencies, telemetry=False,
                   **fields):
    """The sweep's cells, one sanitized captured run of the sharded
    ledger per grid point; ``fields`` override :data:`CELL_DEFAULTS`."""
    settings = _settings(fields)
    specs = []
    for variant, frac, latency in _grid(variants, remote_fracs,
                                        link_latencies):
        gpu_overrides = {
            "max_steps": settings["max_steps"],
            "warp_size": 8,
            "devices": settings["devices"],
            "link_model": "uniform:%d" % latency,
        }
        gpu_overrides.update(settings["gpu_overrides"] or {})
        params = {name: settings[name] for name in WORKLOAD_FIELDS}
        params["remote_frac"] = frac
        specs.append(ExploreCell(
            "mg", params, variant, "rr",
            key="%s/rf%g/lat%d" % (variant, frac, latency),
            num_locks=settings["num_locks"],
            stm_overrides=dict(
                egpgv_max_blocks=settings["grid"],
                egpgv_max_threads_per_block=settings["block"],
            ),
            gpu_overrides=gpu_overrides,
            fault_plan=settings["fault_plan"],
            sanitize=True,
            telemetry=telemetry,
        ))
    return specs


def survival_cell(key, point, devices, outcome):
    """The survival-map entry of grid ``point`` from its captured run."""
    variant, frac, latency = point
    counters = outcome.counters
    return {
        "key": key,
        "variant": variant,
        "remote_frac": frac,
        "link_latency": latency,
        "devices": devices,
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


#: the shared settings the survival-map summary states
SUMMARY_FIELDS = ("devices", "seed", "skew", "shard_skew", "num_accounts",
                  "grid", "block", "txs_per_thread", "max_steps")


def run_multigpu_sweep(variants, remote_fracs, link_latencies, jobs=None,
                       retries=0, timeout=None, journal=None, metrics=None,
                       recorder=None, **fields):
    """Run the survival sweep; returns a
    :class:`~repro.harness.sweep.SweepReport` rendering the survival map.

    ``fields`` override the :data:`CELL_DEFAULTS` every cell shares; the
    rest go to :func:`~repro.harness.sweep.run_sweep`, and a ``metrics``
    registry also turns on per-cell telemetry.
    """
    settings = _settings(fields)
    points = _grid(variants, remote_fracs, link_latencies)

    def summarize(specs, results):
        summary = {name: settings[name] for name in SUMMARY_FIELDS}
        summary.update(
            experiment="multigpu-survival",
            variants=list(variants),
            remote_fracs=list(remote_fracs),
            link_latencies=list(link_latencies),
            cells=[
                failed_cell(spec, result) if result.failed
                else survival_cell(spec.key, point, settings["devices"],
                                   result.run)
                for point, spec, result in zip(points, specs, results)
            ],
        )
        return summary

    return run_sweep(
        build_mg_specs(variants, remote_fracs, link_latencies,
                       telemetry=metrics is not None, **fields),
        execute_explore, summarize,
        lambda report: render_survival_map(report.summary),
        ("survival_map.json", "survival_map.txt"), jobs=jobs,
        retries=retries, timeout=timeout, journal=journal, metrics=metrics,
        recorder=recorder,
    )
