"""The interleaving fuzzer: a grid of recording captured runs plus a reduce.

:func:`fuzz_schedules` runs one recording
:class:`~repro.harness.parallel.ExploreCell` per (variant, policy spec)
— the one captured-run cell, which ``sanitize``, ``inject``, ``byz`` and
``multigpu`` also run — on the shared sweep layer
(:mod:`repro.harness.sweep`) and feeds every commit history to the
strict-serializability oracle (:func:`repro.stm.oracle.check_history`).
Its reduce delta-debugs each failing schedule (a violation or a
watchdog-detected livelock) down to a minimal failing one in the driving
process (each probe is one serial replay), writes the full and shrunk
schedules plus the transaction commit/abort ledger as JSON/CSV
artifacts, so a failure found in CI is reproducible from the artifact
alone via :class:`~repro.sched.trace.ReplayPolicy`, and builds the
deterministic summary written as ``fuzz_summary.json``.

The harness exposes this as ``python -m repro.harness fuzz``.
"""

import os

from repro.common.fsio import atomic_open, atomic_write_json
from repro.harness.parallel import ExploreCell, _explore, execute_explore
from repro.harness.sweep import failed_cell, run_sweep

#: policy templates whose spec incorporates the fuzz seed (the default
#: ``policies`` of :func:`fuzz_schedules`)
SEEDED_TEMPLATES = ("random", "adversarial")


def policy_specs(policies, seeds):
    """Expand policy templates over the seed list.

    Seeded templates ("random", "adversarial") produce one spec per seed;
    fully-parameterized or deterministic specs ("rr", "greedy:8",
    "random:7") run once, since repeating them explores nothing new.
    """
    expanded = []
    for template in policies:
        if template in SEEDED_TEMPLATES:
            expanded.extend("%s:%d" % (template, seed) for seed in seeds)
        else:
            expanded.append(template)
    return expanded


def ddmin(items, fails):
    """Delta-debugging list minimization (removal-only).

    Repeatedly removes chunks at increasing granularity while ``fails``
    keeps returning True for the shrunk candidate.  The result is never
    larger than the input; with an exhausted probe budget (``fails``
    returning False) it simply stops early.
    """
    current = list(items)
    if not current or not fails(current):
        return current
    granularity = 2
    while len(current) >= 2:
        size = max(1, (len(current) + granularity - 1) // granularity)
        reduced = False
        start = 0
        while start < len(current):
            candidate = current[:start] + current[start + size:]
            if fails(candidate):
                current = candidate
                granularity = max(2, granularity - 1)
                reduced = True
                break
            start += size
        if not reduced:
            if granularity >= len(current):
                break
            granularity = min(len(current), granularity * 2)
    return current


def unflatten_decisions(flat, num_launches):
    """Rebuild per-launch decision lists from a flattened candidate."""
    per_launch = [[] for _ in range(num_launches)]
    for launch, sm, warp_id, steps in flat:
        per_launch[launch].append([sm, warp_id, steps])
    return per_launch


def shrink_failure(spec, outcome, budget=160):
    """Delta-debug ``outcome``, the failing run of cell ``spec``, down to
    a minimal failing schedule.

    Replays re-run ``spec`` under a replay policy.  Flattens the recorded
    traces (all launches) into one decision list and ddmin-minimizes it
    under "replay still fails".  ``budget`` bounds the number of replay
    probes.  Returns ``(minimal_flat_decisions, verification_outcome,
    evals)`` where the verification outcome is one final replay of the
    minimal prescription; the prescription is never longer than the
    recorded original (an empty one means the failure reproduces under
    plain round-robin fallback).
    """
    num_launches = max(1, len(outcome.traces))
    flat = outcome.decisions()
    evals = [0]

    def replay(candidate):
        policies = [
            {"type": "replay", "decisions": decisions}
            for decisions in unflatten_decisions(candidate, num_launches)
        ]
        return _explore(spec.clone(policy=policies, record=False))

    def still_fails(candidate):
        if evals[0] >= budget:
            return False
        evals[0] += 1
        return not replay(candidate).ok

    minimal = ddmin(flat, still_fails)
    verification = replay(minimal)
    if verification.ok and minimal is not flat:
        # paranoia: ddmin only keeps candidates that failed, so the final
        # replay must fail; fall back to the full schedule if replay
        # determinism was somehow violated
        minimal = flat
        verification = replay(minimal)
    return minimal, verification, evals[0]


def _write_failure_artifacts(directory, tag, outcome, shrunk):
    """Write the full/shrunk schedules (JSON) and the tx ledger (CSV);
    ``shrunk`` is ``(decisions, verification)`` or ``None``.  Returns
    the file names written."""
    os.makedirs(directory, exist_ok=True)
    names = ["%s.schedule.json" % tag]
    atomic_write_json(os.path.join(directory, names[0]), {
        "workload": outcome.workload,
        "variant": outcome.variant,
        "policy": outcome.policy,
        "failure": outcome.failure,
        "detail": outcome.detail,
        "traces": outcome.traces,
    })
    if shrunk is not None:
        decisions, verify = shrunk
        names.append("%s.shrunk.json" % tag)
        atomic_write_json(os.path.join(directory, names[-1]), {
            "workload": outcome.workload,
            "variant": outcome.variant,
            "policy": outcome.policy,
            "failure": verify.failure,
            "detail": verify.detail,
            "decisions_per_launch": unflatten_decisions(
                decisions, max(1, len(outcome.traces))
            ),
        })
    names.append("%s.ledger.csv" % tag)
    with atomic_open(os.path.join(directory, names[-1])) as handle:
        handle.write("sequence,tid,outcome,reason,reads,writes,version\n")
        for row in outcome.ledger_rows:
            handle.write(",".join(str(x) for x in row) + "\n")
    return names


def first_line(text):
    """The first line of ``text`` (``""`` when there is none)."""
    return next(iter((text or "").splitlines()), "")


def _failing_schedule(spec, outcome, shrink_budget, artifact_dir):
    """The summary entry of one failing schedule: shrunk within
    ``shrink_budget`` replays (none when 0) and written under
    ``artifact_dir`` when given."""
    entry = {
        "policy": outcome.policy,
        "failure": outcome.failure,
        "detail": first_line(outcome.detail),
        "decisions": len(outcome.decisions()),
        "shrunk": None,
        "artifacts": [],
    }
    shrunk = None
    if shrink_budget:
        decisions, verify, evals = shrink_failure(spec, outcome, shrink_budget)
        shrunk = decisions, verify
        entry["shrunk"] = {"decisions": len(decisions), "replays": evals,
                           "failure": verify.failure}
    if artifact_dir:
        tag = "fuzz_%s_%s_%s" % (spec.workload, spec.variant,
                                 str(outcome.policy).replace(":", "-"))
        entry["artifacts"] = _write_failure_artifacts(
            artifact_dir, tag, outcome, shrunk)
    return entry


def summarize_fuzz(workload, specs, results, shrink_budget=160,
                   artifact_dir=None):
    """The fuzz sweep's reduce: per variant, the schedule count, the
    commits and oracle-checked histories, every failing schedule (see
    :func:`_failing_schedule`) and every errored cell.  ``ok`` is False
    on any failing or errored cell: an error is never a pass."""
    summary = {"workload": workload, "variants": {}, "ok": True}
    for spec, result in zip(specs, results):
        entry = summary["variants"].setdefault(spec.variant, {
            "schedules": 0, "commits": 0, "checked": 0,
            "failures": [], "errors": [],
        })
        entry["schedules"] += 1
        if result.failed:
            entry["errors"].append(failed_cell(spec, result))
            summary["ok"] = False
            continue
        outcome = result.run
        entry["commits"] += outcome.commits
        entry["checked"] += outcome.checked
        if not outcome.ok:
            entry["failures"].append(_failing_schedule(
                spec, outcome, shrink_budget, artifact_dir))
            summary["ok"] = False
    return summary


def render_fuzz(summary, artifact_dir=None):
    """The fuzz report text: one block per variant."""
    lines = []
    for variant, entry in summary["variants"].items():
        lines.append("fuzz %s/%s: %d schedules, %d failing" % (
            summary["workload"], variant, entry["schedules"],
            len(entry["failures"])))
        for failure in entry["failures"]:
            lines.append("policy=%(policy)s failure=%(failure)s" % failure)
            lines.append("  %s" % failure["detail"])
            lines.append("  schedule: %d decisions" % failure["decisions"])
            if failure["shrunk"] is not None:
                lines.append("  shrunk to %(decisions)d decisions in "
                             "%(replays)d replays" % failure["shrunk"])
            for name in failure["artifacts"]:
                lines.append("  artifact: %s" % os.path.join(artifact_dir, name))
        if entry["errors"]:
            lines.append("  %d schedule(s) errored outside the oracle"
                         % len(entry["errors"]))
        elif not entry["failures"]:
            lines.append("  all histories strictly serializable "
                         "(%(commits)d commits, %(checked)d oracle-checked)"
                         % entry)
        lines.append("")
    return "\n".join(lines)


def fuzz_schedules(
    workload,
    params,
    variants,
    *,
    seeds=8,
    policies=SEEDED_TEMPLATES,
    mutant=None,
    shrink_budget=160,
    artifact_dir=None,
    **sweep
):
    """Fuzz ``workload`` on every STM variant of ``variants`` in one grid.

    ``seeds`` is an int (meaning ``range(seeds)``) or an iterable of ints;
    ``policies`` are templates expanded by :func:`policy_specs`;
    ``mutant`` runs every cell under that seeded bug.  ``sweep``
    (``jobs``/``retries``/``timeout``/``journal``/``metrics``/``recorder``) goes to
    :func:`~repro.harness.sweep.run_sweep`.  Every failing schedule is
    shrunk within ``shrink_budget`` replays (0: not shrunk) and written
    to ``artifact_dir`` when given.  Returns a
    :class:`~repro.harness.sweep.SweepReport` whose summary is
    :func:`summarize_fuzz`'s.
    """
    if isinstance(seeds, int):
        seeds = range(seeds)
    seeds = list(seeds)
    specs = [ExploreCell(workload, params, variant, policy, mutant=mutant,
                         record=True)
             for variant in variants
             for policy in policy_specs(policies, seeds)]

    def summarize(specs, results):
        return summarize_fuzz(workload, specs, results, shrink_budget,
                              artifact_dir)

    return run_sweep(
        specs, execute_explore, summarize,
        lambda report: render_fuzz(report.summary, artifact_dir),
        ("fuzz_summary.json", None), **sweep
    )
