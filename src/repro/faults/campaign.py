"""Mutant-efficacy campaigns: prove the checker stack catches seeded bugs.

A campaign runs every selected mutant (:data:`repro.faults.mutants.MUTANTS`)
under every selected checker and assembles the **efficacy matrix** — the
evidence that each seeded protocol bug is detected by at least one of

``oracle``
    one round-robin run through :func:`repro.harness.runner.run_workload`
    in capture mode; detection = any recorded failure (a strict-
    serializability violation, or a watchdog trip when the bug destroys
    progress instead of safety).
``sanitizer``
    the same single run with :class:`~repro.faults.sanitizer.StmSanitizer`
    bound; detection = any sanitizer violation *or* any failure (the
    online checker also sees the run the oracle sees).
``fuzzer``
    one recording run per ``random:i`` and ``adversarial:i`` seed (no
    shrinking); detection = any failing schedule, the first of which
    gives the cell's ``detail``.

Alongside the mutants, the campaign runs every covered variant *unmutated*
under every checker: the matrix is only ``ok`` when all mutants are caught
**and** all baselines stay clean, so a checker cannot "win" by flagging
everything.

Every run is one :class:`~repro.harness.parallel.ExploreCell` (the
mutant named by its ``mutant`` field, the sanitizer by ``sanitize``)
through the shared sweep layer (:mod:`repro.harness.sweep`) with
:func:`~repro.harness.parallel.execute_explore`, the one captured-run
cell and executor ``fuzz``, ``sanitize``, ``byz`` and ``multigpu`` use
too; the reduce folds each (mutant, variant, checker)
group of runs into one matrix cell.  The ``inject`` CLI target (``python
-m repro.harness inject``) drives :func:`run_campaign` and writes the
JSON matrix.
"""

from repro.faults.mutants import MUTANTS
from repro.harness.sweep import check_names, run_sweep

CHECKERS = ("oracle", "sanitizer", "fuzzer")

#: Small geometry shared by every campaign job; individual mutants overlay
#: :attr:`~repro.faults.mutants.Mutant.workload_params` to raise contention
#: where their bug needs collisions to matter.
BASE_PARAMS = dict(
    array_size=64,
    grid=2,
    block=16,
    txs_per_thread=2,
    actions_per_tx=2,
)

#: Watchdog budget of every campaign run.  Clean baseline runs of the
#: BASE_PARAMS geometry finish in a few thousand warp steps; mutants that
#: destroy progress (leaked locks, unsorted acquisition) should trip fast
#: instead of burning the explorer's default two-million-step budget.
MAX_STEPS = 120_000


def _campaign_cells(names, checkers, workload, seeds, include_baselines):
    """The campaign's grid: ``(mutant, variant, checker, cells)`` groups
    in matrix order, and their cells flattened in the same order."""
    from repro.harness.parallel import ExploreCell
    from repro.sched.fuzz import SEEDED_TEMPLATES, policy_specs

    rows = [(name, variant) for name in names
            for variant in MUTANTS[name].variants]
    if include_baselines:
        covered = []
        for _name, variant in rows:
            if variant not in covered:
                covered.append(variant)
        rows += [(None, variant) for variant in covered]
    groups = []
    for name, variant in rows:
        params = dict(BASE_PARAMS)
        if name is not None:
            params.update(MUTANTS[name].workload_params)
        for checker in checkers:
            key = "%s/%s/%s" % (name or "baseline", variant, checker)
            fuzzer = checker == "fuzzer"
            policies = (policy_specs(SEEDED_TEMPLATES, range(seeds))
                        if fuzzer else ["rr"])
            cells = [
                ExploreCell(workload, params, variant, policy,
                            key="%s/%s" % (key, policy) if fuzzer else key,
                            gpu_overrides={"max_steps": MAX_STEPS},
                            mutant=name, sanitize=checker == "sanitizer",
                            record=fuzzer)
                for policy in policies
            ]
            groups.append((name, variant, checker, cells))
    return groups, [spec for group in groups for spec in group[3]]


def _matrix_cell(name, variant, checker, results):
    """The matrix cell of one (mutant, variant, checker) group.

    Detected when any of its runs failed (an oracle violation, a watchdog
    trip or a sanitizer report); ``detail`` and ``livelock`` come from the
    first such run.  A cell whose run failed instead of reporting is an
    error cell: never a mutant caught, and on a baseline it poisons the
    matrix's ``ok``.
    """
    from repro.sched.fuzz import first_line

    cell = {
        "mutant": name,
        "variant": variant,
        "checker": checker,
        "detected": False,
        "detail": None,
        "livelock": False,
        "error": None,
    }
    errors = [result.as_failure() for result in results if result.failed]
    if errors:
        cell["detected"] = True
        cell["error"] = cell["detail"] = "%s: %s" % (errors[0].exception,
                                                     errors[0].message)
        return cell
    hits = [result.run for result in results if not result.run.ok]
    if hits:
        cell["detected"] = True
        cell["detail"] = "%s: %s" % (hits[0].failure,
                                     first_line(hits[0].detail))
        cell["livelock"] = hits[0].livelock
    return cell


def run_campaign(
    mutants=None,
    checkers=CHECKERS,
    jobs=1,
    workload="ra",
    include_baselines=True,
    seeds=2,
    **sweep
):
    """Run the mutant x checker campaign; returns a
    :class:`~repro.harness.sweep.SweepReport` whose summary is the
    efficacy matrix.

    ``mutants`` is an iterable of mutant names (default: the whole corpus);
    ``checkers`` any subset of :data:`CHECKERS`; ``jobs`` the process-pool
    width; ``seeds`` how many ``random:i`` and ``adversarial:i`` cells the
    fuzzer checker runs per (mutant, variant).  ``sweep``
    (``retries``/``timeout``/``journal``/``metrics``/``recorder``) goes to
    :func:`~repro.harness.sweep.run_sweep` (retries, timeouts,
    checkpoint/resume, the experiment DB; see docs/resilience.md).

    The matrix's ``ok`` is True iff every mutant was detected by at least
    one checker on at least one of its variants **and** every baseline
    stayed clean.
    """
    names = list(mutants) if mutants is not None else sorted(MUTANTS)
    check_names(names, sorted(MUTANTS), "mutant")
    checkers = list(checkers)
    check_names(checkers, CHECKERS, "checker")
    groups, cells = _campaign_cells(names, checkers, workload, seeds,
                                    include_baselines)

    def summarize(_specs, results):
        matrix = {
            "workload": workload,
            "checkers": checkers,
            "mutants": {},
            "baselines": {},
            "ok": True,
        }
        for name in names:
            mutant = MUTANTS[name]
            matrix["mutants"][name] = {
                "description": mutant.description,
                "variants": list(mutant.variants),
                "expected": list(mutant.expected),
                "results": {},
                "detected": False,
            }
        results = iter(results)
        for name, variant, checker, group in groups:
            cell = _matrix_cell(name, variant, checker,
                                [next(results) for _ in group])
            if name is None:
                matrix["baselines"].setdefault(variant, {})[checker] = cell
                if cell["detected"]:
                    matrix["ok"] = False
            else:
                entry = matrix["mutants"][name]
                entry["results"].setdefault(variant, {})[checker] = cell
                if cell["detected"] and not cell["error"]:
                    entry["detected"] = True
        # escapees: mutants no checker caught, named explicitly in the JSON
        # artifact so a red campaign says *which* bug got away, not just "NO"
        matrix["escapees"] = [
            name for name in names if not matrix["mutants"][name]["detected"]
        ]
        if matrix["escapees"]:
            matrix["ok"] = False
        return matrix

    # imported here: repro.faults must stay importable without dragging
    # in the whole scheduling/workload stack
    from repro.harness.parallel import execute_explore

    return run_sweep(
        cells, execute_explore, summarize,
        lambda report: render_matrix(report.summary),
        ("efficacy_matrix.json", None), jobs=jobs, **sweep
    )


def render_matrix(matrix):
    """Human-readable table of an efficacy matrix (one mutant per row)."""
    checkers = matrix["checkers"]
    name_width = max(
        [len("mutant")] + [len(name) for name in matrix["mutants"]] or [6]
    )
    header = "%-*s  %s  caught" % (
        name_width, "mutant", "  ".join("%-9s" % c for c in checkers),
    )
    lines = [header, "-" * len(header)]
    for name in sorted(matrix["mutants"]):
        entry = matrix["mutants"][name]
        cells = []
        for checker in checkers:
            hits = [
                result
                for result in (
                    entry["results"].get(v, {}).get(checker)
                    for v in entry["variants"]
                )
                if result is not None and result["detected"]
            ]
            if any(r["error"] for r in hits):
                cells.append("%-9s" % "ERROR")
            elif hits:
                cells.append("%-9s" % "caught")
            else:
                cells.append("%-9s" % "-")
        lines.append(
            "%-*s  %s  %s" % (
                name_width, name, "  ".join(cells),
                "yes" if entry["detected"] else "NO",
            )
        )
    clean = [v for v, cell in sorted(matrix["baselines"].items())
             if not any(r["detected"] for r in cell.values())]
    dirty = [v for v, cell in sorted(matrix["baselines"].items())
             if any(r["detected"] for r in cell.values())]
    if clean:
        lines.append("baselines clean: %s" % ", ".join(clean))
    for variant in dirty:
        flagged = [
            "%s (%s)" % (checker, result["detail"])
            for checker, result in sorted(matrix["baselines"][variant].items())
            if result["detected"]
        ]
        lines.append(
            "baseline FALSE POSITIVE on %s: %s" % (variant, "; ".join(flagged))
        )
    if matrix.get("escapees"):
        lines.append("ESCAPEES: %s" % ", ".join(matrix["escapees"]))
    lines.append("matrix ok: %s" % ("yes" if matrix["ok"] else "NO"))
    return "\n".join(lines)
