"""Supervised job execution: timeouts, retry with backoff, chaos injection.

:func:`run_supervised` wraps the same (specs -> results in spec order)
contract as :func:`~repro.harness.parallel.run_jobs` in a supervision
layer that keeps a sweep alive through the failures a long experiment
campaign actually meets:

* **wall-clock timeouts** — a worker that stops making wall-clock
  progress (infinite loop outside the simulator, chaos-injected hang) is
  SIGKILLed at ``wall_timeout`` seconds and the attempt classified
  ``timeout`` (transient: the same spec normally finishes in time);
* **simulated-cycle timeouts** — ``cycle_budget`` overlays ``max_steps``
  on every spec's GPU config, so the scheduler's own watchdog trips
  inside the worker and its :class:`~repro.gpu.errors.LivelockError` /
  :class:`~repro.gpu.errors.ProgressError` classification (spinning vs
  parked lanes) arrives as a structured, *deterministic* failure;
* **bounded retry with backoff** — transient failures (see
  :func:`~repro.harness.parallel.classify_exception`) are retried up to
  ``max_retries`` times with exponential backoff and deterministic
  jitter; deterministic failures (livelock, deadlock, verification
  errors) fail immediately, because replaying the same simulation
  replays the same outcome;
* **checkpoint/resume** — with a ``journal`` (a
  :class:`~repro.harness.journal.SweepJournal` or path), every finished
  job is durably recorded, and a re-run against the same journal skips
  completed jobs and merges to output bit-identical to an uninterrupted
  sweep;
* **chaos injection** — a :class:`ChaosPlan` makes workers misbehave on
  purpose (raise, SIGKILL themselves, hang, run with an armed fault
  plan) on chosen attempts, which is how the chaos harness proves the
  above actually works.

Everything the supervisor does is observable: it fills ``supervisor.*``
counters in a :class:`~repro.telemetry.MetricRegistry` (jobs total /
resumed / succeeded / failed, attempts, retries, first-attempt
successes, wall and cycle timeouts, failures by category) with the exact
arithmetic ``first_attempt_successes + retries + failures-after-retry``
accounting the acceptance tests pin down.

The supervisor never touches the unsupervised path: ``run_jobs`` without
supervision arguments does not import this module.
"""

import dataclasses
import os
import signal
import time

from repro.harness.journal import SweepJournal, spec_fingerprint
from repro.harness.parallel import (
    JobFailure,
    JobResult,
    TransientJobError,
    default_jobs,
    execute_job,
)
from repro.telemetry import MetricRegistry

#: chaos kinds that only make sense against a real worker process
_PROCESS_ONLY_CHAOS = ("sigkill", "hang")

CHAOS_KINDS = ("error", "sigkill", "hang", "fault")


@dataclasses.dataclass
class SupervisorConfig:
    """Tuning knobs for :func:`run_supervised`; plain picklable data.

    ``wall_timeout`` (seconds, process mode only) and ``cycle_budget``
    (simulated warp-steps, overlaid as ``max_steps`` on every spec)
    default to ``None`` — no limit.  ``max_retries`` bounds *re*-runs: a
    job gets at most ``1 + max_retries`` attempts, and only transient
    failures are retried.  Backoff before attempt ``n+1`` is
    ``backoff_base * 2**(n-1)`` seconds, capped at ``backoff_cap``, plus
    a deterministic jitter fraction (up to ``jitter`` of the delay)
    derived from the job fingerprint and attempt number — stable across
    runs, but de-synchronized across jobs.
    """

    wall_timeout: float = None
    cycle_budget: int = None
    max_retries: int = 2
    backoff_base: float = 0.25
    backoff_cap: float = 8.0
    jitter: float = 0.5
    poll_interval: float = 0.05

    def backoff_delay(self, fingerprint, attempts):
        """Delay before the next attempt, given ``attempts`` already made."""
        if self.backoff_base <= 0:
            return 0.0
        delay = min(self.backoff_base * (2.0 ** (attempts - 1)), self.backoff_cap)
        if self.jitter > 0:
            # deterministic jitter: hash of (fingerprint, attempt) — no
            # global RNG, so supervised sweeps stay reproducible
            seed = (int(fingerprint[:8], 16) ^ (attempts * 0x9E3779B1)) & 0xFFFFFFFF
            delay += delay * self.jitter * ((seed % 1024) / 1024.0)
        return delay


@dataclasses.dataclass
class ChaosEvent:
    """One planned misbehaviour for a job: *what* goes wrong and *when*.

    ``kind`` is one of :data:`CHAOS_KINDS`; ``attempts`` the zero-based
    attempt numbers the event fires on (default: first attempt only), so
    a job can be made to fail exactly N times and then succeed.

    * ``error`` — raise :class:`TransientJobError` inside the worker;
    * ``sigkill`` — the worker SIGKILLs itself (supervisor sees a dead
      process with no result: ``worker-lost``);
    * ``hang`` — the worker sleeps ``hang_seconds`` (supervisor's wall
      timeout must reap it);
    * ``fault`` — the attempt runs with ``faults`` (``FaultSpec.parse``
      strings) armed and ``gpu_overrides`` applied (e.g. a tight
      ``max_steps``), then the attempt is *always* failed with a
      :class:`TransientJobError` describing what the injected fault did.
      The faulted attempt's result is discarded, so the clean retry keeps
      the sweep's merged output bit-identical.
    """

    kind: str
    attempts: tuple = (0,)
    faults: list = None
    gpu_overrides: dict = None
    hang_seconds: float = 3600.0

    def __post_init__(self):
        if self.kind not in CHAOS_KINDS:
            raise ValueError("unknown chaos kind %r (one of %s)"
                             % (self.kind, ", ".join(CHAOS_KINDS)))
        self.attempts = tuple(self.attempts)

    def fires_on(self, attempt):
        return attempt in self.attempts


class ChaosPlan:
    """Per-job chaos schedule, keyed by ``spec.key``.  Picklable: the plan
    ships into worker processes alongside the executor."""

    def __init__(self):
        self.events = {}

    def add(self, key, kind, **kwargs):
        self.events.setdefault(key, []).append(ChaosEvent(kind, **kwargs))
        return self

    def for_job(self, key, attempt):
        """The event firing for (job, attempt), or ``None``."""
        for event in self.events.get(key, ()):
            if event.fires_on(attempt):
                return event
        return None

    def check(self, specs, serial):
        """Reject, before any attempt, a plan this sweep cannot honour:
        sigkill/hang events without killable workers (``serial``), and
        ``fault`` events on cells whose kind has no fault seam."""
        if serial and any(event.kind in _PROCESS_ONLY_CHAOS
                          for events in self.events.values()
                          for event in events):
            raise ValueError(
                "chaos plan includes sigkill/hang events; they need worker "
                "processes (jobs > 1) or they would kill/hang this process"
            )
        for spec in specs:
            if spec.faultable:
                continue
            if any(event.kind == "fault"
                   for event in self.events.get(spec.key, ())):
                raise ValueError(
                    "chaos fault event on %r: %s cells have no fault seam"
                    % (spec.key, type(spec).__name__)
                )

    def __len__(self):
        return sum(len(events) for events in self.events.values())

    def __repr__(self):
        return "ChaosPlan(%d events over %d jobs)" % (len(self), len(self.events))


def _apply_chaos(event, executor, spec, attempt):
    """Run one chaos event inside the worker.  Raises (or kills the
    process); for ``fault`` it runs the faulted attempt first so the
    injected failure is *real*, then fails the attempt as transient."""
    if event.kind == "error":
        raise TransientJobError(
            "chaos: injected error on attempt %d of %r" % (attempt, spec.key)
        )
    if event.kind == "sigkill":
        os.kill(os.getpid(), signal.SIGKILL)
    if event.kind == "hang":
        time.sleep(event.hang_seconds)
        raise TransientJobError(
            "chaos: hang of %r outlived its %.1fs nap (no wall timeout?)"
            % (spec.key, event.hang_seconds)
        )
    # kind == "fault": run with the fault plan armed, then discard
    updates = {}
    if event.faults:
        combined = list(spec.fault_plan or []) + list(event.faults)
        updates["fault_plan"] = combined
    if event.gpu_overrides:
        overrides = dict(spec.gpu_overrides or {})
        overrides.update(event.gpu_overrides)
        updates["gpu_overrides"] = overrides
    faulted = spec.clone(**updates)
    inner = executor(faulted)
    if getattr(inner, "failed", False):
        detail = inner.brief_error()
    else:
        detail = "run completed despite the fault"
    raise TransientJobError(
        "chaos: faulted attempt %d of %r (%s) -- %s"
        % (attempt, spec.key, ",".join(event.faults or []), detail)
    )


def run_attempt(executor, spec, chaos, attempt):
    """One attempt of one job, chaos applied; returns a result, never
    raises.  Shared by the serial path and the worker-process entry."""
    try:
        if chaos is not None:
            event = chaos.for_job(spec.key, attempt)
            if event is not None:
                _apply_chaos(event, executor, spec, attempt)
        return executor(spec)
    except Exception as exc:  # noqa: BLE001 - captured into the result
        return JobResult.from_exception(spec.key, exc)


def _worker_entry(conn, executor, spec, chaos, attempt):
    """Worker-process main: run the attempt, ship the result back."""
    result = run_attempt(executor, spec, chaos, attempt)
    try:
        conn.send(result)
    except Exception as exc:  # noqa: BLE001 - unpicklable result
        from repro.harness.parallel import _pool_error_result

        conn.send(_pool_error_result(spec, exc))
    finally:
        conn.close()


def _failure_of(result):
    """The structured failure of a result, or ``None`` on success.

    The fuzzer's executor returns bare ``ScheduleOutcome`` payloads with
    no ``failed`` notion — those count as successes.
    """
    if isinstance(result, JobResult):
        return result.as_failure()
    return None


class _Job:
    """Supervisor-internal bookkeeping for one pending spec."""

    __slots__ = ("index", "spec", "fingerprint", "attempts", "not_before")

    def __init__(self, index, spec, fingerprint):
        self.index = index
        self.spec = spec
        self.fingerprint = fingerprint
        self.attempts = 0       # attempts already started
        self.not_before = 0.0   # monotonic time gate for backoff


class _Supervisor:
    """State shared by the serial and process execution modes."""

    def __init__(self, config, journal, chaos, executor, registry, sleep):
        self.config = config
        self.journal = journal
        self.chaos = chaos
        self.executor = executor
        self.registry = registry
        self.sleep = sleep
        self.results = None

    # -- counters ------------------------------------------------------
    def count(self, name, amount=1):
        self.registry.add("supervisor." + name, amount)

    def start_attempt(self, job):
        job.attempts += 1
        self.count("attempts")
        if job.attempts > 1:
            self.count("retries")

    # -- outcome handling ----------------------------------------------
    def finish(self, job, result, failure):
        """Record a job's final result (success or exhausted failure)."""
        if failure is None:
            self.count("jobs.succeeded")
            if job.attempts == 1:
                self.count("first_attempt_successes")
        else:
            failure.attempts = job.attempts
            self.count("jobs.failed")
            self.count("failures.%s" % failure.category)
            if failure.category in ("livelock", "deadlock"):
                self.count("timeouts.cycle")
        self.results[job.index] = result
        if self.journal is not None:
            self.journal.record(job.fingerprint, job.spec.key, result)

    def should_retry(self, job, failure):
        return failure.transient and job.attempts <= self.config.max_retries

    def backoff(self, job):
        return self.config.backoff_delay(job.fingerprint, job.attempts)


def _run_serial(sup, pending):
    """In-process execution: retries loop inline, backoff via ``sleep``."""
    for job in pending:
        while True:
            sup.start_attempt(job)
            result = run_attempt(sup.executor, job.spec, sup.chaos,
                                 job.attempts - 1)
            failure = _failure_of(result)
            if failure is None or not sup.should_retry(job, failure):
                sup.finish(job, result, failure)
                break
            sup.sleep(sup.backoff(job))


def _launch(sup, job, ctx):
    """Start one worker process for the job's next attempt."""
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    sup.start_attempt(job)
    proc = ctx.Process(
        target=_worker_entry,
        args=(child_conn, sup.executor, job.spec, sup.chaos, job.attempts - 1),
        daemon=True,
    )
    proc.start()
    child_conn.close()
    deadline = None
    if sup.config.wall_timeout is not None:
        deadline = time.monotonic() + sup.config.wall_timeout
    return {"job": job, "proc": proc, "conn": parent_conn, "deadline": deadline}


def _reap(sup, record, result, failure, queue):
    """Handle a finished attempt: retry (requeue with backoff) or finish."""
    job = record["job"]
    record["conn"].close()
    record["proc"].join()
    if failure is not None and sup.should_retry(job, failure):
        job.not_before = time.monotonic() + sup.backoff(job)
        queue.append(job)
    else:
        sup.finish(job, result, failure)


def _supervisor_timeout_result(job, category, detail):
    key = job.spec.key
    message = "job %r %s: %s" % (key, category, detail)
    failure = JobFailure(key, category, "SupervisorTimeout"
                         if category == "timeout" else "WorkerLost",
                         message, attempts=job.attempts, transient=True)
    return JobResult(key, error=message, failure=failure), failure


def _run_pool(sup, pending, workers):
    """Process-mode execution: one worker process per attempt, bounded
    concurrency, wall-clock deadlines, dead-worker detection."""
    import multiprocessing.connection as mpc
    import multiprocessing as mp

    ctx = mp.get_context()
    queue = list(pending)
    running = []

    while queue or running:
        now = time.monotonic()
        # launch every eligible job while worker slots are free
        launched = True
        while launched and len(running) < workers:
            launched = False
            for i, job in enumerate(queue):
                if job.not_before <= now:
                    del queue[i]
                    running.append(_launch(sup, job, ctx))
                    launched = True
                    break
        if not running:
            # everything queued is backing off; sleep to the nearest gate
            gate = min(job.not_before for job in queue)
            sup.sleep(max(0.0, gate - time.monotonic()))
            continue

        # wait for a result, a death, or the nearest deadline
        wait_until = now + sup.config.poll_interval
        for record in running:
            if record["deadline"] is not None:
                wait_until = min(wait_until, record["deadline"])
        for job in queue:
            wait_until = min(wait_until, job.not_before)
        mpc.wait(
            [record["conn"] for record in running],
            timeout=max(0.0, wait_until - time.monotonic()),
        )

        now = time.monotonic()
        still_running = []
        for record in running:
            job = record["job"]
            try:
                has_result = record["conn"].poll()
            except (OSError, ValueError):
                has_result = False
            if has_result:
                try:
                    result = record["conn"].recv()
                except (EOFError, OSError):
                    # died between poll() and recv(): treat as lost below
                    has_result = False
            if has_result:
                _reap(sup, record, result, _failure_of(result), queue)
                continue
            if record["deadline"] is not None and now >= record["deadline"]:
                record["proc"].kill()
                record["proc"].join()
                sup.count("timeouts.wall")
                result, failure = _supervisor_timeout_result(
                    job, "timeout",
                    "exceeded wall_timeout=%.1fs; worker SIGKILLed"
                    % sup.config.wall_timeout,
                )
                _reap(sup, record, result, failure, queue)
                continue
            if not record["proc"].is_alive():
                exitcode = record["proc"].exitcode
                result, failure = _supervisor_timeout_result(
                    job, "worker-lost",
                    "worker died without a result (exitcode %r)" % exitcode,
                )
                _reap(sup, record, result, failure, queue)
                continue
            still_running.append(record)
        running = still_running


def run_supervised(specs, jobs=None, config=None, journal=None, chaos=None,
                   executor=None, metrics=None, sleep=time.sleep,
                   recorder=None):
    """Execute ``specs`` under supervision; results in spec order.

    The entry point behind ``run_jobs(..., supervise=..., journal=...,
    chaos=...)``.  ``config`` is a :class:`SupervisorConfig` or a kwargs
    dict for one; ``journal`` a :class:`~repro.harness.journal.
    SweepJournal` or a path (a path-journal is closed on return);
    ``metrics`` a :class:`~repro.telemetry.MetricRegistry` receiving the
    ``supervisor.*`` counters (a throwaway registry is used when absent).
    ``sleep`` is injectable so tests assert backoff schedules without
    waiting them out.  ``recorder`` — a ``(specs, results, metrics)``
    callable, typically a :class:`~repro.expdb.recorder.SweepRecorder` —
    is invoked once at sweep completion with the *effective* specs (the
    cycle budget overlaid, i.e. exactly what was fingerprinted and
    journaled), so the experiment-DB record carries the same
    fingerprints a journal of this sweep checkpoints under.

    ``jobs <= 1`` runs attempts in-process (no wall timeouts, and chaos
    kinds that kill or hang the worker are rejected — they would take the
    caller down with them); ``jobs > 1`` runs each attempt in its own
    ``multiprocessing.Process`` so timeouts and chaos kills reap only
    that attempt.
    """
    specs = list(specs)
    if executor is None:
        executor = execute_job
    if config is None:
        config = SupervisorConfig()
    elif isinstance(config, dict):
        config = SupervisorConfig(**config)
    if jobs is None:
        jobs = default_jobs()
    registry = metrics if metrics is not None else MetricRegistry()

    own_journal = None
    if journal is not None and not isinstance(journal, SweepJournal):
        journal = own_journal = SweepJournal(journal)

    serial = jobs <= 1
    if chaos is not None:
        chaos.check(specs, serial)

    # overlay the cycle budget *before* fingerprinting, so a journal
    # written under one budget is not resumed under another
    effective = []
    for spec in specs:
        if config.cycle_budget is not None:
            overrides = dict(spec.gpu_overrides or {})
            overrides.setdefault("max_steps", config.cycle_budget)
            spec = spec.clone(gpu_overrides=overrides)
        effective.append(spec)

    fingerprints = [spec_fingerprint(spec) for spec in effective]
    completed = journal.load() if journal is not None else {}

    results = [None] * len(effective)
    pending = []
    for index, fingerprint in enumerate(fingerprints):
        if fingerprint in completed:
            results[index] = completed[fingerprint]
            registry.add("supervisor.jobs.resumed")
        else:
            pending.append(_Job(index, effective[index], fingerprint))
    registry.add("supervisor.jobs.total", len(effective))
    registry.add("supervisor.jobs.executed", len(pending))

    sup = _Supervisor(config, journal, chaos, executor, registry, sleep)
    sup.results = results
    try:
        if serial:
            _run_serial(sup, pending)
        elif pending:
            _run_pool(sup, pending, min(jobs, len(pending)))
    finally:
        if own_journal is not None:
            own_journal.close()
    if recorder is not None:
        recorder(effective, results, registry)
    return results
