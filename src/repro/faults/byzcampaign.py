"""Byzantine-lane resilience campaigns: containment and detection proof.

Where :mod:`repro.faults.campaign` seeds *protocol* bugs (a broken
runtime), a byzantine campaign seeds *adversarial lanes*: each cell
arms one byzantine kind of :mod:`repro.faults.plan`
(:data:`~repro.faults.plan.BYZ_KINDS`) on a few designated threads that
lie in validation, publish torn lock metadata, replay stale versions
after abort, hoard locks, or poison the global clock — while the
runtime stays correct.  The question the matrix answers is not
"does a checker catch the bug" but "what happens to everyone else":

**contained**
    the adversary acted (``fired > 0``) but every innocent lane stayed
    oracle-clean — ``blast_radius == 0`` in the
    :func:`~repro.stm.oracle.attribute_history` split, and any oracle
    violation is attributed to the designated liars alone.
**immune**
    the variant gives the behavior no seam at all (``fired == 0``, clean
    run) — e.g. ``lie_validation`` against CGL/EGPGV, which have no
    validation phase to lie in.
**detected**
    the online :class:`~repro.faults.sanitizer.StmSanitizer` flagged the
    run; the cell carries the **detection latency** — simulated cycles
    from the adversary's first action to the first sanitizer violation.
**escaped**
    none of the above: innocents were corrupted (or the run hung) with
    no sanitizer evidence.  Escapees are listed by name in the matrix
    and make the campaign exit non-zero.

Alongside the armed cells, every variant runs once *disarmed* under the
sanitizer: the matrix is only ``ok`` when no cell escaped **and** every
baseline stayed clean, so detection cannot "win" by flagging everything.

Each cell is one sanitized captured run
(:class:`~repro.harness.parallel.ExploreCell`, armed through its
``fault_plan``; the cell ``fuzz``, ``sanitize``, ``inject`` and
``multigpu`` run too) and a pure reduce folds each run into its matrix
cell.  Cells run through the shared sweep layer
(:mod:`repro.harness.sweep`) — the same executor, checkpoint
journal, and experiment-database recorder every sweep uses — so
``python -m repro byz`` supports
``--jobs``/``--retries``/``--timeout``/``--resume``/``--expdb``.  With
``--devices N`` the whole campaign runs on a multi-device topology and
the byzantine lanes are pinned to ``--byz-device`` (default: the last
device), modelling a hostile *remote* accelerator.
"""

from repro.faults.plan import BYZ_KINDS
from repro.gpu.config import GpuConfig
from repro.harness.parallel import ExploreCell, execute_explore
from repro.harness.sweep import (
    SweepCommand,
    add_sweep_flags,
    check_names,
    csv_or_all,
    run_sweep,
    sweep_main,
)
from repro.stm import EXTENSION_VARIANTS, STM_VARIANTS

#: every runtime the campaign covers by default: the paper's seven plus
#: the extension variants, like the mutant-efficacy campaign
ALL_VARIANTS = STM_VARIANTS + EXTENSION_VARIANTS

#: watchdog budget per cell: adversaries that destroy progress (hoarded
#: locks) should trip fast, not burn the explorer's default budget
MAX_STEPS = 400_000

CLASSIFICATIONS = ("immune", "contained", "detected", "escaped", "error")


def device_lane_tids(grid, block, device, devices, num_sms):
    """Lane-0 tids of every launch block homed on ``device``.

    Uses the multi-device launcher's block placement
    (:meth:`GpuConfig.device_of <repro.gpu.config.GpuConfig.device_of>`).
    Used to pin the byzantine lanes to one (remote) accelerator.
    """
    placement = GpuConfig(num_sms=num_sms, devices=devices)
    return tuple(
        index * block
        for index in range(grid)
        if placement.device_of(index) == device
    )


def default_spec_text(behavior, block, *, tids=None):
    """CLI spec for one behavior: explicit ``tids`` or one lane per block."""
    if tids is not None:
        if not tids:
            raise ValueError("no byzantine lanes land on the chosen device; "
                             "raise --grid or pick another --byz-device")
        return "%s:tids=%s" % (behavior, "+".join(str(t) for t in tids))
    return "%s:stride=%d,offset=0" % (behavior, block)


def _attack_cell(behavior, spec, outcome):
    """The matrix cell of ``behavior`` (``None``: a disarmed baseline)
    from cell ``spec``'s captured run ``outcome``."""
    result = _cell(behavior, spec)
    result["fired"] = len(outcome.fired)
    if outcome.fired:
        result["first_fired_cycle"] = outcome.fired[0]["cycle"]
    result["failure"] = outcome.failure
    if outcome.detail:
        result["detail"] = outcome.detail.splitlines()[0]
    result["checks"] = sorted(outcome.first_violations)
    result["attribution"] = outcome.attribution
    if outcome.attribution is not None:
        result["blast_radius"] = outcome.attribution["blast_radius"]
    if outcome.first_violations:
        first_check = min(
            outcome.first_violations, key=lambda c: outcome.first_violations[c]
        )
        result["detected_by"] = first_check
        latency = outcome.first_violations[first_check]
        if result["first_fired_cycle"] is not None:
            latency -= result["first_fired_cycle"]
        result["detection_latency"] = max(0, latency)
    result["classification"] = _classify(behavior, result)
    return result


def _cell(behavior, spec):
    """A matrix cell with no evidence yet."""
    return {
        "behavior": behavior,
        "variant": spec.variant,
        "workload": spec.workload,
        "spec": spec.fault_plan[0] if behavior else "",
        "devices": (spec.gpu_overrides or {}).get("devices", 1),
        "classification": None,
        "detected_by": None,
        "detection_latency": None,
        "blast_radius": None,
        "fired": 0,
        "first_fired_cycle": None,
        "failure": None,
        "detail": None,
        "checks": [],
        "attribution": None,
        "error": None,
    }


def _classify(behavior, result):
    """Fold one cell's evidence into a :data:`CLASSIFICATIONS` verdict."""
    if behavior is None:
        # baseline: any evidence at all is a false positive
        clean = (result["failure"] is None and not result["checks"]
                 and not result["fired"])
        return "contained" if clean else "escaped"
    if result["checks"]:
        return "detected"
    if result["fired"] == 0:
        return "immune" if result["failure"] is None else "escaped"
    blast = result["blast_radius"]
    if blast == 0 and result["failure"] in (None, "serializability"):
        # the oracle pinned every violation on the designated liars;
        # innocent lanes committed a serializable history
        return "contained"
    return "escaped"


def _byz_jobs(behaviors, variants, workload, params, devices, link_latency,
              byz_device, num_sms, num_locks):
    """The campaign's grid: ``(behavior, cell)`` pairs, every armed
    (behavior, variant) cell in matrix order, then one disarmed baseline
    (behavior ``None``) per variant."""
    block = params["block"]
    tids = None
    gpu_overrides = {"max_steps": MAX_STEPS}
    if devices > 1:
        tids = device_lane_tids(
            params["grid"], block, byz_device, devices, num_sms
        )
        gpu_overrides["devices"] = devices
        gpu_overrides["link_model"] = "uniform:%d" % link_latency
    grid = [(behavior, variant, [default_spec_text(behavior, block,
                                                   tids=tids)])
            for behavior in behaviors for variant in variants]
    grid += [(None, variant, None) for variant in variants]
    return [
        (behavior, ExploreCell(
            workload, params, variant, "rr",
            key="%s/%s" % (behavior or "baseline", variant),
            num_locks=num_locks, gpu_overrides=gpu_overrides,
            fault_plan=plan, sanitize=True,
        ))
        for behavior, variant, plan in grid
    ]


def run_byz_campaign(
    behaviors=None,
    variants=None,
    workload="cns",
    params=None,
    jobs=1,
    devices=1,
    link_latency=40,
    byz_device=None,
    num_sms=2,
    num_locks=16,
    **sweep
):
    """Run the behavior x variant campaign; returns a
    :class:`~repro.harness.sweep.SweepReport` whose summary is the
    resilience matrix.

    ``behaviors`` defaults to the full vocabulary
    (:data:`~repro.faults.plan.BYZ_KINDS`), ``variants`` to
    every registered runtime, ``params`` to the workload's unit-test
    geometry.  ``sweep`` (``jobs``/``retries``/``timeout``/``journal``/
    ``metrics``/``recorder``) goes to :func:`~repro.harness.sweep.run_sweep`; the
    matrix is bit-identical across ``jobs`` widths and journal resume.

    The matrix's ``ok`` is True iff no armed cell escaped and every
    disarmed baseline stayed clean; ``escapees`` names the offenders.
    """
    behaviors = list(behaviors) if behaviors is not None else list(BYZ_KINDS)
    check_names(behaviors, BYZ_KINDS, "behavior")
    variants = list(variants) if variants is not None else list(ALL_VARIANTS)
    check_names(variants, ALL_VARIANTS, "variant")
    if params is None:
        from repro.harness.configs import test_workload_params

        params = test_workload_params(workload)
    if byz_device is None:
        byz_device = devices - 1
    if devices > 1 and not 0 <= byz_device < devices:
        raise ValueError("byz_device %d outside topology of %d device(s)"
                         % (byz_device, devices))

    grid = _byz_jobs(behaviors, variants, workload, params, devices,
                     link_latency, byz_device, num_sms, num_locks)
    behaviors_of = [behavior for behavior, _spec in grid]

    def summarize(specs, results):
        matrix = {
            "workload": workload,
            "behaviors": behaviors,
            "variants": variants,
            "devices": devices,
            "byz_device": byz_device if devices > 1 else None,
            "cells": {behavior: {} for behavior in behaviors},
            "baselines": {},
            "escapees": [],
            "ok": True,
        }
        for behavior, spec, result in zip(behaviors_of, specs, results):
            cell = (_error_cell(behavior, spec, result) if result.failed
                    else _attack_cell(behavior, spec, result.run))
            if behavior is None:
                matrix["baselines"][spec.variant] = cell
                if cell["classification"] != "contained":
                    matrix["ok"] = False
                    matrix["escapees"].append(spec.key)
            else:
                matrix["cells"][behavior][spec.variant] = cell
                if cell["classification"] in ("escaped", "error"):
                    matrix["ok"] = False
                    matrix["escapees"].append(spec.key)
        return matrix

    return run_sweep(
        [spec for _behavior, spec in grid], execute_explore, summarize,
        lambda report: render_byz_matrix(report.summary),
        ("byz_matrix.json", None), jobs=jobs, **sweep
    )


def _error_cell(behavior, spec, result):
    """The matrix cell of a cell that failed instead of reporting."""
    failure = result.as_failure()
    cell = _cell(behavior, spec)
    cell["classification"] = "error"
    cell["error"] = "%s: %s" % (failure.exception, failure.message)
    return cell


_CELL_MARK = {
    "immune": "immune",
    "contained": "contain",
    "detected": "detect",
    "escaped": "ESCAPED",
    "error": "ERROR",
}


def render_byz_matrix(matrix):
    """Human-readable behavior x variant table with latency annotations."""
    variants = matrix["variants"]
    name_width = max([len("behavior")] + [len(b) for b in matrix["behaviors"]])
    col = max([9] + [len(v) + 1 for v in variants])
    header = "%-*s  %s" % (
        name_width, "behavior", "".join("%-*s" % (col, v) for v in variants),
    )
    lines = [header, "-" * len(header)]
    for behavior in matrix["behaviors"]:
        row = matrix["cells"][behavior]
        cells = []
        for variant in variants:
            cell = row.get(variant)
            mark = _CELL_MARK.get(cell["classification"], "?") if cell else "-"
            cells.append("%-*s" % (col, mark))
        lines.append("%-*s  %s" % (name_width, behavior, "".join(cells)))
    detected = [
        (behavior, variant, cell)
        for behavior in matrix["behaviors"]
        for variant, cell in sorted(matrix["cells"][behavior].items())
        if cell["classification"] == "detected"
    ]
    if detected:
        lines.append("")
        lines.append("detection latency (cycles from first lie to first "
                     "sanitizer violation):")
        for behavior, variant, cell in detected:
            lines.append(
                "  %s/%s: %s after %s cycle(s)"
                % (behavior, variant, cell["detected_by"],
                   cell["detection_latency"])
            )
    clean = [v for v, cell in sorted(matrix["baselines"].items())
             if cell["classification"] == "contained"]
    if clean:
        lines.append("baselines clean: %s" % ", ".join(clean))
    if matrix["escapees"]:
        lines.append("ESCAPEES: %s" % ", ".join(matrix["escapees"]))
    lines.append("matrix ok: %s" % ("yes" if matrix["ok"] else "NO"))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# CLI: python -m repro byz
# ----------------------------------------------------------------------

def build_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro byz",
        description="Run the byzantine-lane resilience campaign: every "
        "adversarial behavior against every STM variant, classified as "
        "immune / contained / detected / escaped against the "
        "serialization oracle and the online sanitizer (see "
        "docs/fault_injection.md).",
    )
    parser.add_argument(
        "--behaviors", default="all", metavar="NAMES",
        help="comma-separated byzantine behaviors, or 'all' (default: %s)"
        % ",".join(BYZ_KINDS),
    )
    parser.add_argument(
        "--variants", default="all", metavar="NAMES",
        help="comma-separated STM variants, or 'all' (default: all)",
    )
    parser.add_argument(
        "--workload", default="cns", metavar="NAME",
        help="workload under attack (default: cns — consensus objects)",
    )
    parser.add_argument(
        "--devices", type=int, default=1, metavar="N",
        help="multi-device topology size; > 1 pins the byzantine lanes "
        "to --byz-device (default: 1, single device)",
    )
    parser.add_argument(
        "--byz-device", type=int, default=None, metavar="D",
        help="device hosting the byzantine lanes (default: the last one)",
    )
    parser.add_argument(
        "--link", type=int, default=40, metavar="CYCLES",
        help="inter-device link latency in cycles (default: 40)",
    )
    add_sweep_flags(parser, "byz-artifacts")
    return parser


@sweep_main
def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    behaviors = csv_or_all(args.behaviors, BYZ_KINDS, "--behaviors",
                           parser)
    variants = csv_or_all(args.variants, ALL_VARIANTS, "--variants", parser)
    if args.devices < 1:
        parser.error("--devices must be >= 1")
    if args.link < 0:
        parser.error("--link must be >= 0")

    command = SweepCommand(
        args, parser, "byz-campaign",
        summary={"workload": args.workload, "devices": args.devices},
    )
    report = run_byz_campaign(
        behaviors=behaviors, variants=variants, workload=args.workload,
        devices=args.devices, link_latency=args.link,
        byz_device=args.byz_device, **command.run_kwargs
    )
    return command.finish(
        report, "byz %d behavior(s) x %d variant(s)"
        % (len(behaviors), len(variants)),
    )


if __name__ == "__main__":
    import sys

    sys.exit(main())
