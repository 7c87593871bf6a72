"""Chaos harness: prove the sweep executor survives what it claims to.

``python -m repro.harness chaos`` runs three phases against one small
reference sweep and checks each against the uninterrupted, plain serial
run of the same specs:

1. **happy path** — retries on must not change a clean sweep's output:
   results bit-identical, every job a first-attempt success, zero
   retries.
2. **worker chaos** — a :class:`~repro.harness.supervisor.ChaosPlan`
   makes four jobs misbehave on their first attempt (raise, SIGKILL
   the worker, hang past the wall timeout, run with an armed
   ``warp_stall`` fault and a tight ``max_steps``).  Every job must
   still converge to the reference result via retry, and the
   ``supervisor.*`` counters must account for each injected failure —
   including the worker processes: the warm pool starts ``workers``
   once and replaces exactly two (the SIGKILLed and the hung one).
3. **kill-and-resume** — a child process runs the sweep serially with a
   journal and SIGKILLs *itself* partway through; the parent resumes
   from the journal and must produce results (and merged telemetry)
   bit-identical to the reference, re-running only the jobs the journal
   never recorded.

The harness returns a :class:`ChaosReport`; the CLI exits non-zero when
any phase failed.  CI runs this as the ``chaos-smoke`` job.
"""

import os
import signal

from repro.harness import configs
from repro.harness.journal import SweepJournal
from repro.harness.parallel import JobSpec, execute_job, merge_job_metrics, run_jobs
from repro.harness.supervisor import ChaosPlan
from repro.telemetry import MetricRegistry

#: (workload, variant) pairs of the reference sweep — small unit-test
#: geometries, a few seconds total, covering three runtime families
CASES = (
    ("ra", "cgl"),
    ("ra", "hv-sorting"),
    ("ra", "optimized"),
    ("ht", "cgl"),
    ("ht", "hv-sorting"),
    ("ht", "optimized"),
)


def chaos_specs():
    """The reference sweep's spec list (telemetry on: phase 3 compares
    merged registries, not just run results)."""
    return [
        JobSpec(
            (workload, variant), workload,
            configs.test_workload_params(workload), variant,
            num_locks=64, telemetry=True,
        )
        for workload, variant in CASES
    ]


def _runs_equal(a, b):
    """Bit-identity of two JobResults: run fields and worker metrics."""
    if a.failed or b.failed:
        return False
    run_a, run_b = a.run, b.run
    if (run_a.cycles, run_a.commits, run_a.abort_rate) != (
            run_b.cycles, run_b.commits, run_b.abort_rate):
        return False
    if run_a.stats != run_b.stats:
        return False
    if [k.cycles for k in run_a.kernel_results] != [
            k.cycles for k in run_b.kernel_results]:
        return False
    return a.metrics == b.metrics


def _diff(reference, results):
    """Keys whose results differ from the reference (in spec order)."""
    return [
        ref.key
        for ref, out in zip(reference, results)
        if out is None or not _runs_equal(ref, out)
    ]


class ChaosReport:
    """Phase-by-phase outcome of one chaos run."""

    def __init__(self):
        self.phases = []  # (name, ok, detail)

    def add(self, name, ok, detail):
        self.phases.append((name, bool(ok), detail))

    @property
    def ok(self):
        return all(ok for _, ok, _ in self.phases)

    def as_dict(self):
        return {
            "ok": self.ok,
            "phases": [
                {"name": name, "ok": ok, "detail": detail}
                for name, ok, detail in self.phases
            ],
        }

    def render(self):
        lines = ["chaos harness: %d phase(s)" % len(self.phases)]
        for name, ok, detail in self.phases:
            lines.append("  [%s] %s: %s" % ("ok" if ok else "FAIL", name, detail))
        lines.append("chaos ok: %s" % ("yes" if self.ok else "NO"))
        return "\n".join(lines)


class _KillAfter:
    """Executor that SIGKILLs its own process after ``n`` completed jobs —
    the simulated operator/OOM-killer of the kill-and-resume phase."""

    def __init__(self, n):
        self.n = n
        self.done = 0

    def __call__(self, spec):
        if self.done >= self.n:
            os.kill(os.getpid(), signal.SIGKILL)
        result = execute_job(spec)
        self.done += 1
        return result


def _killed_sweep(journal_path, kill_after):
    """Child-process main for phase 3: journal the sweep, die mid-way."""
    run_jobs(
        chaos_specs(), jobs=1, journal=journal_path,
        executor=_KillAfter(kill_after),
    )


def _phase_happy_path(report, reference, specs):
    registry = MetricRegistry()
    results = run_jobs(specs, jobs=1, retries=2, metrics=registry)
    bad = _diff(reference, results)
    counters = registry.as_dict()["counters"]
    clean = (
        counters.get("supervisor.first_attempt_successes") == len(specs)
        and counters.get("supervisor.retries") is None
        and counters.get("supervisor.jobs.succeeded") == len(specs)
    )
    report.add(
        "happy path",
        not bad and clean,
        "results match reference, %d/%d first-attempt successes, 0 retries"
        % (counters.get("supervisor.first_attempt_successes", 0), len(specs))
        if not bad else "results diverge for %s" % bad,
    )


def _phase_worker_chaos(report, reference, specs, jobs, wall_timeout):
    plan = (
        ChaosPlan()
        .add(specs[0].key, "error")
        .add(specs[1].key, "sigkill")
        .add(specs[2].key, "hang", hang_seconds=10 * wall_timeout)
        .add(
            specs[3].key, "fault",
            faults=["warp_stall:sm=0,warp=0,after=10,duration=2000000"],
            gpu_overrides=dict(max_steps=20_000),
        )
    )
    registry = MetricRegistry()
    workers = min(max(2, jobs), len(specs))
    results = run_jobs(
        specs, jobs=workers, retries=2, timeout=wall_timeout, chaos=plan,
        metrics=registry,
    )
    bad = _diff(reference, results)
    counters = registry.as_dict()["counters"]
    retries = counters.get("supervisor.retries", 0)
    # the pool starts its warm workers once; only the SIGKILLed and the
    # hung worker are replaced
    started = counters.get("supervisor.workers.started", 0)
    accounted = (
        retries >= len(plan)
        and counters.get("supervisor.jobs.succeeded") == len(specs)
        and counters.get("supervisor.timeouts.wall", 0) >= 1
        and counters.get("supervisor.failures.worker-lost", 0) == 0
        and started == workers + 2
    )
    report.add(
        "worker chaos",
        not bad and accounted,
        "results diverge for %s" % bad if bad else
        "%d injected failures retried to clean convergence "
        "(%d retries, %d wall timeout(s), %d worker processes for %d "
        "workers, expected %d)"
        % (len(plan), retries, counters.get("supervisor.timeouts.wall", 0),
           started, workers, workers + 2),
    )


def _phase_kill_and_resume(report, reference, specs, journal_path, kill_after):
    import multiprocessing as mp

    ctx = mp.get_context()
    child = ctx.Process(target=_killed_sweep, args=(journal_path, kill_after))
    child.start()
    child.join()
    if child.exitcode != -signal.SIGKILL:
        report.add(
            "kill and resume", False,
            "child expected to die by SIGKILL, exitcode %r" % child.exitcode,
        )
        return
    journaled = len(SweepJournal(journal_path).load())
    registry = MetricRegistry()
    results = run_jobs(specs, jobs=1, journal=journal_path, metrics=registry)
    bad = _diff(reference, results)
    counters = registry.as_dict()["counters"]
    resumed = counters.get("supervisor.jobs.resumed", 0)
    merged_ref = merge_job_metrics(reference).as_dict()
    merged_now = merge_job_metrics(results).as_dict()
    ok = (
        not bad
        and journaled == kill_after
        and resumed == kill_after
        and merged_ref == merged_now
    )
    report.add(
        "kill and resume",
        ok,
        "results diverge for %s" % bad if bad else
        "child killed after %d job(s), resume re-ran %d and merged "
        "bit-identical to the uninterrupted sweep"
        % (journaled, len(specs) - resumed),
    )


def run_chaos(jobs=2, out_dir="chaos-artifacts", kill_after=2,
              wall_timeout=20.0):
    """Run the three chaos phases; returns a :class:`ChaosReport`.

    ``jobs`` sizes the worker pool of the chaos phase (floored at 2: the
    sigkill/hang events need killable workers); ``kill_after`` how many
    jobs the phase-3 child completes before killing itself;
    ``wall_timeout`` the reaping deadline for the hung worker.  The
    journal and a JSON copy of the report land under ``out_dir``.
    """
    from repro.common.fsio import atomic_write_json

    os.makedirs(out_dir, exist_ok=True)
    journal_path = os.path.join(out_dir, "chaos.journal")
    if os.path.exists(journal_path):
        os.remove(journal_path)

    report = ChaosReport()
    specs = chaos_specs()
    reference = run_jobs(chaos_specs(), jobs=1)
    failed_reference = [r.key for r in reference if r.failed]
    if failed_reference:
        report.add("reference sweep", False,
                   "reference jobs failed: %s" % failed_reference)
        return report
    report.add("reference sweep", True,
               "%d jobs clean (plain serial)" % len(reference))

    _phase_happy_path(report, reference, specs)
    _phase_worker_chaos(report, reference, chaos_specs(), jobs, wall_timeout)
    _phase_kill_and_resume(
        report, reference, chaos_specs(), journal_path, kill_after
    )
    atomic_write_json(os.path.join(out_dir, "chaos_report.json"),
                      report.as_dict())
    return report
