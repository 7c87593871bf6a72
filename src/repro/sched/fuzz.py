"""Interleaving fuzzer: hunt schedule-dependent STM bugs, then shrink them.

``fuzz_schedules`` runs one (workload, runtime) pair under N seeded
random/adversarial schedules, records every issue trace, feeds every
commit history to the strict-serializability oracle
(:func:`repro.stm.oracle.check_history`), and — on a violation or a
watchdog-detected livelock — delta-debugs the recorded schedule down to a
minimal failing one.  Both the full and the shrunk schedule (plus the
transaction commit/abort ledger) are written as JSON/CSV artifacts, so a
failure found in CI is reproducible from the artifact alone via
:class:`~repro.sched.trace.ReplayPolicy`.

Seeds fan out over worker processes through
:func:`repro.harness.parallel.run_jobs` with this module's
:func:`execute_fuzz_job` as the executor, exactly like the figure sweeps;
shrinking runs in the driving process (each probe is one serial replay).

The harness exposes this as ``python -m repro.harness fuzz``.
"""

import os
import traceback

from repro.common.fsio import atomic_open, atomic_write_json
from repro.harness.parallel import Cell, cell, run_jobs
from repro.sched.explore import ScheduleOutcome, run_under_schedule

#: policy templates whose spec incorporates the fuzz seed
SEEDED_TEMPLATES = ("random", "adversarial")

#: templates accepted by ``fuzz_schedules(policies=...)``
DEFAULT_TEMPLATES = ("random", "adversarial")


@cell
class FuzzJobSpec(Cell):
    """Picklable description of one fuzz run (one policy spec).

    ``runtime_factory`` is a module-level callable ``(variant, device,
    stm_config) -> runtime``, or ``None`` for
    :func:`repro.stm.make_runtime`; it must be picklable for jobs > 1.
    ``key`` defaults to ``workload/variant/policy``.
    """

    seed: int
    policy: object
    workload: str
    params: dict
    variant: str
    num_locks: int = 16
    stm_overrides: dict = None
    gpu_overrides: dict = None
    runtime_factory: object = None
    key: object = None
    fault_plan: list = None

    key_fields = ("workload", "variant", "policy")


def execute_fuzz_job(spec):
    """Run one fuzz spec; never raises (run_jobs executor contract)."""
    try:
        return run_under_schedule(
            spec.workload,
            spec.params,
            spec.variant,
            policy=spec.policy,
            num_locks=spec.num_locks,
            stm_overrides=spec.stm_overrides,
            gpu_overrides=spec.gpu_overrides,
            runtime_factory=spec.runtime_factory,
            fault_plan=spec.fault_plan,
        )
    except Exception:
        outcome = ScheduleOutcome(spec.workload, spec.variant, spec.policy)
        outcome.failure = "error"
        outcome.detail = traceback.format_exc()
        return outcome


def policy_specs(policies, seeds):
    """Expand policy templates over the seed list.

    Seeded templates ("random", "adversarial") produce one spec per seed;
    fully-parameterized or deterministic specs ("rr", "greedy:8",
    "random:7") run once, since repeating them explores nothing new.
    """
    expanded = []
    for template in policies:
        head = template.partition(":")[0]
        if template == head and head in SEEDED_TEMPLATES:
            for seed in seeds:
                expanded.append((seed, "%s:%d" % (head, seed)))
        else:
            expanded.append((None, template))
    return expanded


class FuzzFailure:
    """One failing schedule: the outcome, its shrink, and its artifacts.

    ``shrunk_decisions`` is the *prescription*: the minimal
    ``(launch, sm, warp_id, steps)`` list that, replayed (with round-robin
    fallback once exhausted), still fails — never larger than the recorded
    original, possibly empty when the bug needs no specific schedule at
    all.  ``shrunk_outcome`` is the verification replay of that
    prescription.
    """

    __slots__ = (
        "spec",
        "outcome",
        "shrunk_decisions",
        "shrunk_outcome",
        "shrink_evals",
        "artifacts",
    )

    def __init__(self, spec, outcome):
        self.spec = spec
        self.outcome = outcome
        self.shrunk_decisions = None
        self.shrunk_outcome = None
        self.shrink_evals = 0
        self.artifacts = []

    def describe(self):
        lines = [
            "policy=%s failure=%s" % (self.outcome.policy, self.outcome.failure),
            "  %s" % (self.outcome.detail or "").splitlines()[0],
            "  schedule: %d decisions" % len(self.outcome.decisions()),
        ]
        if self.shrunk_decisions is not None:
            lines.append(
                "  shrunk to %d decisions in %d replays"
                % (len(self.shrunk_decisions), self.shrink_evals)
            )
        for path in self.artifacts:
            lines.append("  artifact: %s" % path)
        return "\n".join(lines)


class FuzzReport:
    """Outcome of a whole fuzz campaign over one (workload, variant)."""

    __slots__ = ("workload", "variant", "outcomes", "failures")

    def __init__(self, workload, variant):
        self.workload = workload
        self.variant = variant
        self.outcomes = []
        self.failures = []

    @property
    def found_violation(self):
        return bool(self.failures)

    def render(self):
        lines = [
            "fuzz %s/%s: %d schedules, %d failing"
            % (self.workload, self.variant, len(self.outcomes), len(self.failures))
        ]
        for failure in self.failures:
            lines.append(failure.describe())
        if not self.failures:
            commits = sum(o.commits for o in self.outcomes)
            checked = sum(o.checked for o in self.outcomes)
            lines.append(
                "  all histories strictly serializable "
                "(%d commits, %d oracle-checked)" % (commits, checked)
            )
        return "\n".join(lines)


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


def shrink_failure(failure, workload, params, variant, *, budget=160,
                   num_locks=16, stm_overrides=None, gpu_overrides=None,
                   runtime_factory=None):
    """Delta-debug a failing schedule down to a minimal failing one.

    Flattens the recorded traces (all launches) into one decision list and
    ddmin-minimizes it under "replay still fails".  ``budget`` bounds the
    number of replay probes.  Returns ``(minimal_flat_decisions,
    verification_outcome, evals)`` where the verification outcome is one
    final replay of the minimal prescription; the prescription is never
    longer than the recorded original (an empty one means the failure
    reproduces under plain round-robin fallback).
    """
    outcome = failure.outcome
    num_launches = max(1, len(outcome.traces))
    flat = outcome.decisions()
    evals = [0]

    def replay(candidate):
        policies = [
            {"type": "replay", "decisions": decisions}
            for decisions in unflatten_decisions(candidate, num_launches)
        ]
        return run_under_schedule(
            workload, params, variant, policy=policies,
            num_locks=num_locks, stm_overrides=stm_overrides,
            gpu_overrides=gpu_overrides, runtime_factory=runtime_factory,
            record=False,
        )

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


def _write_failure_artifacts(directory, tag, failure):
    """Write full/shrunk schedules (JSON) and the tx ledger (CSV)."""
    os.makedirs(directory, exist_ok=True)
    written = []

    def dump(name, outcome):
        path = os.path.join(directory, "%s.%s.json" % (tag, name))
        payload = {
            "workload": outcome.workload,
            "variant": outcome.variant,
            "policy": outcome.policy,
            "failure": outcome.failure,
            "detail": outcome.detail,
            "traces": outcome.traces,
        }
        atomic_write_json(path, payload)
        written.append(path)

    dump("schedule", failure.outcome)
    if failure.shrunk_decisions is not None:
        verify = failure.shrunk_outcome
        path = os.path.join(directory, "%s.shrunk.json" % tag)
        num_launches = max(1, len(failure.outcome.traces))
        payload = {
            "workload": failure.outcome.workload,
            "variant": failure.outcome.variant,
            "policy": failure.outcome.policy,
            "failure": verify.failure if verify is not None else None,
            "detail": verify.detail if verify is not None else None,
            "decisions_per_launch": unflatten_decisions(
                failure.shrunk_decisions, num_launches
            ),
        }
        atomic_write_json(path, payload)
        written.append(path)
    ledger_path = os.path.join(directory, "%s.ledger.csv" % tag)
    with atomic_open(ledger_path) as handle:
        handle.write("sequence,tid,outcome,reason,reads,writes,version\n")
        for row in failure.outcome.ledger_rows:
            handle.write(",".join(str(x) for x in row) + "\n")
    written.append(ledger_path)
    failure.artifacts.extend(written)
    return written


def fuzz_schedules(
    workload,
    params,
    variant,
    *,
    seeds=8,
    policies=DEFAULT_TEMPLATES,
    jobs=1,
    num_locks=16,
    stm_overrides=None,
    gpu_overrides=None,
    runtime_factory=None,
    shrink=True,
    shrink_budget=160,
    artifact_dir=None,
):
    """Fuzz one (workload, runtime) pair across many schedules.

    ``seeds`` is an int (meaning ``range(seeds)``) or an iterable of ints;
    ``policies`` are templates expanded by :func:`policy_specs`.  Runs fan
    out over ``jobs`` worker processes via :func:`run_jobs`.  Every failing
    schedule is (optionally) shrunk and written to ``artifact_dir``.
    Returns a :class:`FuzzReport`.
    """
    if isinstance(seeds, int):
        seeds = range(seeds)
    seeds = list(seeds)
    specs = [
        FuzzJobSpec(
            seed, policy, workload, params, variant,
            num_locks=num_locks, stm_overrides=stm_overrides,
            gpu_overrides=gpu_overrides, runtime_factory=runtime_factory,
        )
        for seed, policy in policy_specs(policies, seeds)
    ]
    report = FuzzReport(workload, variant)
    outcomes = run_jobs(specs, jobs=jobs, executor=execute_fuzz_job)
    for spec, outcome in zip(specs, outcomes):
        report.outcomes.append(outcome)
        if outcome.ok:
            continue
        if outcome.failure == "error":
            # infrastructure error, not a schedule finding: surface loudly
            raise RuntimeError(
                "fuzz job %r failed outside the oracle:\n%s"
                % (spec, outcome.detail)
            )
        failure = FuzzFailure(spec, outcome)
        if shrink:
            (
                failure.shrunk_decisions,
                failure.shrunk_outcome,
                failure.shrink_evals,
            ) = shrink_failure(
                failure, workload, params, variant,
                budget=shrink_budget, num_locks=num_locks,
                stm_overrides=stm_overrides, gpu_overrides=gpu_overrides,
                runtime_factory=runtime_factory,
            )
        if artifact_dir:
            tag = "fuzz_%s_%s_%s" % (
                workload, variant, str(outcome.policy).replace(":", "-")
            )
            _write_failure_artifacts(artifact_dir, tag, failure)
        report.failures.append(failure)
    return report
