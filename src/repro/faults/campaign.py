"""Mutant-efficacy campaigns: prove the checker stack catches seeded bugs.

A campaign runs every selected mutant (:data:`repro.faults.mutants.MUTANTS`)
under every selected checker and assembles the **efficacy matrix** — the
evidence the ISSUE asks for: each seeded protocol bug is detected by at
least one of

``oracle``
    one round-robin run through :func:`repro.sched.explore
    .run_under_schedule`; detection = any recorded failure (a strict-
    serializability violation, or a watchdog trip when the bug destroys
    progress instead of safety).
``sanitizer``
    the same single run with :class:`~repro.faults.sanitizer.StmSanitizer`
    bound; detection = any sanitizer violation *or* any failure (the
    online checker also sees the run the oracle sees).
``fuzzer``
    a short :func:`repro.sched.fuzz.fuzz_schedules` campaign (no
    shrinking); detection = any failing schedule.

Alongside the mutants, the campaign runs every covered variant *unmutated*
under every checker: the matrix is only ``ok`` when all mutants are caught
**and** all baselines stay clean, so a checker cannot "win" by flagging
everything.

Jobs run through the shared sweep layer (:mod:`repro.harness.sweep`);
:func:`execute_campaign_job` is the module-level executor that pickles into
worker processes.  The ``inject`` CLI target (``python -m repro.harness
inject``) drives :func:`run_campaign` and writes the JSON matrix.
"""

from repro.faults.mutants import MUTANTS, MutantRuntimeFactory
from repro.harness.parallel import Cell, capture, cell
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


@cell
class CampaignJob(Cell):
    """One (mutant-or-baseline, variant, checker) unit of campaign work.

    ``mutant`` is ``None`` for a clean-baseline job; ``key`` defaults to
    ``mutant/variant/checker`` (``baseline/...``).  The fuzzer checker
    runs :func:`~repro.sched.fuzz.fuzz_schedules`, which has no seam for
    ``fault_plan``; the oracle and sanitizer checkers arm it.
    """

    mutant: str
    variant: str
    checker: str
    workload: str
    params: dict
    seeds: int
    key: object = None
    gpu_overrides: dict = None
    fault_plan: list = None

    key_fields = ("mutant", "variant", "checker")

    @property
    def faultable(self):
        return self.checker != "fuzzer"


def _check(job, _telemetry):
    # imported here, not at module top: repro.faults must stay importable
    # without dragging in the whole scheduling/workload stack
    from repro.sched.explore import run_under_schedule
    from repro.sched.fuzz import fuzz_schedules

    factory = MutantRuntimeFactory(job.mutant) if job.mutant else None
    gpu_overrides = dict({"max_steps": MAX_STEPS}, **(job.gpu_overrides or {}))
    result = _cell(job)
    if job.checker == "fuzzer":
        report = fuzz_schedules(
            job.workload,
            job.params,
            job.variant,
            seeds=job.seeds,
            jobs=1,
            shrink=False,
            gpu_overrides=gpu_overrides,
            runtime_factory=factory,
        )
        result["detected"] = report.found_violation
        if report.failures:
            first = report.failures[0].outcome
            result["detail"] = "%s: %s" % (
                first.failure, (first.detail or "").splitlines()[0],
            )
            result["livelock"] = first.livelock
        return result
    outcome = run_under_schedule(
        job.workload,
        job.params,
        job.variant,
        policy="rr",
        sanitize=job.checker == "sanitizer",
        gpu_overrides=gpu_overrides,
        runtime_factory=factory,
        fault_plan=job.fault_plan,
    )
    if job.checker == "sanitizer":
        result["detected"] = (
            bool(outcome.violations) or outcome.failure is not None
        )
    else:
        result["detected"] = outcome.failure is not None
    if outcome.failure is not None:
        result["detail"] = "%s: %s" % (
            outcome.failure, (outcome.detail or "").splitlines()[0],
        )
    elif outcome.violations:
        result["detail"] = "%(check)s: %(detail)s" % outcome.violations[0]
    result["livelock"] = outcome.livelock
    return result


def _cell(job):
    """A matrix cell with no evidence yet."""
    return {
        "mutant": job.mutant,
        "variant": job.variant,
        "checker": job.checker,
        "detected": False,
        "detail": None,
        "livelock": False,
        "error": None,
    }


def execute_campaign_job(job):
    """Run one campaign job; its ``JobResult.run`` is the matrix cell.
    A failed job folds in as an error cell (see :func:`_error_cell`)."""
    return capture(job, _check)


def _error_cell(job, result):
    """The matrix cell of a job that failed instead of reporting: never a
    mutant caught, and on a baseline it poisons the matrix's ``ok``."""
    failure = result.as_failure()
    cell = _cell(job)
    cell["detected"] = True
    cell["error"] = cell["detail"] = "%s: %s" % (failure.exception,
                                                 failure.message)
    return cell


def _campaign_jobs(names, checkers, workload, seeds, include_baselines):
    jobs = []
    covered = []
    for name in names:
        mutant = MUTANTS[name]
        params = dict(BASE_PARAMS)
        params.update(mutant.workload_params)
        for variant in mutant.variants:
            if variant not in covered:
                covered.append(variant)
            for checker in checkers:
                jobs.append(
                    CampaignJob(name, variant, checker, workload, params, seeds)
                )
    if include_baselines:
        for variant in covered:
            for checker in checkers:
                jobs.append(
                    CampaignJob(
                        None, variant, checker, workload, BASE_PARAMS, seeds
                    )
                )
    return jobs


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
    width; ``seeds`` the per-fuzzer-job schedule count.  ``sweep``
    (``supervise``/``journal``/``metrics``/``recorder``) goes to
    :func:`~repro.harness.sweep.run_sweep` (timeouts, retries,
    checkpoint/resume, the experiment DB; see docs/resilience.md).

    The matrix's ``ok`` is True iff every mutant was detected by at least
    one checker on at least one of its variants **and** every baseline
    stayed clean.
    """
    names = list(mutants) if mutants is not None else sorted(MUTANTS)
    check_names(names, sorted(MUTANTS), "mutant")
    checkers = list(checkers)
    check_names(checkers, CHECKERS, "checker")

    def summarize(specs, results):
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
        for spec, result in zip(specs, results):
            cell = _error_cell(spec, result) if result.failed else result.run
            if spec.mutant is None:
                matrix["baselines"].setdefault(spec.variant, {})[
                    spec.checker] = cell
                if cell["detected"]:
                    matrix["ok"] = False
            else:
                entry = matrix["mutants"][spec.mutant]
                entry["results"].setdefault(spec.variant, {})[
                    spec.checker] = cell
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

    return run_sweep(
        _campaign_jobs(names, checkers, workload, seeds, include_baselines),
        execute_campaign_job, summarize,
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
