"""The sweep executor's machinery: warm workers, retry, chaos injection.

:func:`~repro.harness.parallel.run_jobs` is the one way cells run; this
module holds what it runs them with, imported when a sweep starts:

* **per-job bookkeeping** (:class:`Supervisor`, :class:`Job`) — the
  ``supervisor.*`` counters, the retry decision and the journal record of
  every finished job;
* **bounded retry with backoff** — transient failures (see
  :func:`~repro.harness.parallel.classify_exception`) are retried up to
  ``retries`` times after :func:`backoff_delay`; deterministic failures
  (livelock, deadlock, verification errors) fail at once, because
  replaying the same simulation replays the same outcome;
* **the warm pool** (:class:`_Pool`) — ``jobs > 1`` runs attempts on
  long-lived worker processes, SIGKILLs a worker whose attempt passes
  the wall-clock ``timeout`` and replaces any worker that dies;
* **chaos injection** — a :class:`ChaosPlan` makes workers misbehave on
  purpose (raise, SIGKILL themselves, hang, run with an armed fault
  plan) on chosen attempts, which is how the chaos harness proves the
  above actually works.

The counters (jobs total / resumed / executed / succeeded / failed,
attempts, retries, first-attempt successes, wall and cycle timeouts,
failures by category, workers started) satisfy the exact arithmetic
``first_attempt_successes + retries + failures-after-retry`` the
acceptance tests pin down.
"""

import dataclasses
import os
import signal
import time
import traceback

from repro.harness.parallel import (
    JobFailure,
    JobResult,
    TransientJobError,
    classify_exception,
)

#: chaos kinds that only make sense against a real worker process
_PROCESS_ONLY_CHAOS = ("sigkill", "hang")

CHAOS_KINDS = ("error", "sigkill", "hang", "fault")

#: retry backoff: ``BACKOFF_BASE * 2**(n-1)`` seconds after ``n``
#: attempts, capped at ``BACKOFF_CAP``, plus up to ``BACKOFF_JITTER`` of
#: that delay again
BACKOFF_BASE = 0.25
BACKOFF_CAP = 8.0
BACKOFF_JITTER = 0.5


def backoff_delay(fingerprint, attempts):
    """Delay before the next attempt of the job ``fingerprint`` names,
    given ``attempts`` already made.  The jitter is a hash of (fingerprint,
    attempt) — no global RNG, so reruns space their retries identically
    while different jobs de-synchronize."""
    delay = min(BACKOFF_BASE * (2.0 ** (attempts - 1)), BACKOFF_CAP)
    seed = (int(fingerprint[:8], 16) ^ (attempts * 0x9E3779B1)) & 0xFFFFFFFF
    return delay + delay * BACKOFF_JITTER * ((seed % 1024) / 1024.0)


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
    if inner.failed:
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


def _pipe_error_result(spec, exc):
    """A structured failure for a spec that cannot be sent to a worker,
    or whose result cannot be sent back: a :class:`JobFailure` naming the
    offending cell, so its siblings run on."""
    category, transient = classify_exception(exc)
    if "pickle" in type(exc).__name__.lower() or "pickle" in str(exc).lower():
        category = "unpicklable"
        transient = False
    message = (
        "job %r (%r) failed in the process pool: %s: %s"
        % (spec.key, spec, type(exc).__name__, exc)
    )
    failure = JobFailure(
        spec.key, category, type(exc).__name__, message,
        traceback=traceback.format_exc(), transient=transient,
    )
    return JobResult(spec.key, error=message, failure=failure)


def _worker_main(conn, executor, chaos):
    """Warm-worker main: run ``(spec, attempt)`` tasks off the pipe and
    ship each result back, until the parent sends ``None``."""
    while True:
        try:
            task = conn.recv()
        except EOFError:  # the parent is gone
            return
        if task is None:
            return
        spec, attempt = task
        result = run_attempt(executor, spec, chaos, attempt)
        try:
            conn.send(result)
        except Exception as exc:  # noqa: BLE001 - unpicklable result
            conn.send(_pipe_error_result(spec, exc))


class Job:
    """Bookkeeping for one pending spec."""

    __slots__ = ("index", "spec", "fingerprint", "attempts", "not_before")

    def __init__(self, index, spec, fingerprint):
        self.index = index
        self.spec = spec
        self.fingerprint = fingerprint
        self.attempts = 0       # attempts already started
        self.not_before = 0.0   # monotonic time gate for backoff


class Supervisor:
    """One sweep's execution state: how to run an attempt, when to retry,
    where results, counters and journal records go."""

    def __init__(self, executor, retries, timeout, journal, chaos, registry,
                 sleep, results):
        self.executor = executor
        self.retries = retries
        self.timeout = timeout
        self.journal = journal
        self.chaos = chaos
        self.registry = registry
        self.sleep = sleep
        self.results = results

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
        return failure.transient and job.attempts <= self.retries

    def backoff(self, job):
        return backoff_delay(job.fingerprint, job.attempts)

    # -- the two modes -------------------------------------------------
    def run_in_process(self, pending):
        """Run every attempt in this process; backoff via ``sleep``."""
        for job in pending:
            while True:
                self.start_attempt(job)
                result = run_attempt(self.executor, job.spec, self.chaos,
                                     job.attempts - 1)
                failure = result.as_failure()
                if failure is None or not self.should_retry(job, failure):
                    self.finish(job, result, failure)
                    break
                self.sleep(self.backoff(job))

    def run_on_workers(self, pending, workers):
        """Run every attempt on ``workers`` warm worker processes."""
        _Pool(self, list(pending)).run(workers)


class _Worker:
    """A warm worker process, the parent's end of its duplex pipe, and
    the job it runs (``job is None`` while idle)."""

    __slots__ = ("proc", "conn", "job", "deadline")

    def __init__(self, proc, conn):
        self.proc = proc
        self.conn = conn
        self.job = None
        self.deadline = None


class _Pool:
    """The parent's side of the warm workers: every live one, the idle
    ones, and the busy ones keyed by their pipe end."""

    def __init__(self, sup, queue):
        import multiprocessing as mp

        self.sup = sup
        self.queue = queue
        self.ctx = mp.get_context()
        self.live = []
        self.idle = []
        self.busy = {}

    def spawn(self):
        """Start one warm worker; the executor and chaos plan ride along as
        process arguments, so the worker's copy persists across its tasks."""
        parent_conn, child_conn = self.ctx.Pipe()
        proc = self.ctx.Process(
            target=_worker_main,
            args=(child_conn, self.sup.executor, self.sup.chaos), daemon=True,
        )
        proc.start()
        child_conn.close()
        self.sup.count("workers.started")
        worker = _Worker(proc, parent_conn)
        self.live.append(worker)
        self.idle.append(worker)

    def settle(self, job, result, failure):
        """Handle a finished attempt: retry (requeue with backoff) or finish."""
        if failure is not None and self.sup.should_retry(job, failure):
            job.not_before = time.monotonic() + self.sup.backoff(job)
            self.queue.append(job)
        else:
            self.sup.finish(job, result, failure)

    def dispatch(self, job):
        """Hand the job's next attempt to an idle worker."""
        worker = self.idle.pop()
        self.sup.start_attempt(job)
        worker.job = job
        try:
            worker.conn.send((job.spec, job.attempts - 1))
        except OSError:
            self.replace(worker, "worker-lost")  # died while idle
            return
        except Exception as exc:  # noqa: BLE001 - unpicklable spec
            worker.job = None
            self.idle.append(worker)
            result = _pipe_error_result(job.spec, exc)
            self.settle(job, result, result.failure)
            return
        if self.sup.timeout is not None:
            worker.deadline = time.monotonic() + self.sup.timeout
        self.busy[worker.conn] = worker

    def receive(self, worker):
        """Collect a busy worker's result, or its EOF if it died."""
        del self.busy[worker.conn]
        try:
            result = worker.conn.recv()
        except (EOFError, OSError):
            self.replace(worker, "worker-lost")
            return
        job, worker.job = worker.job, None
        self.idle.append(worker)
        self.settle(job, result, result.as_failure())

    def replace(self, worker, category):
        """SIGKILL (a no-op on a dead process) and reap a worker, fail its
        attempt as ``category``, and start a fresh worker while the sweep
        has work left."""
        self.busy.pop(worker.conn, None)
        worker.proc.kill()
        worker.proc.join()
        worker.conn.close()
        self.live.remove(worker)
        job = worker.job
        if category == "timeout":
            self.sup.count("timeouts.wall")
            detail = ("exceeded timeout=%.1fs; worker SIGKILLed"
                      % self.sup.timeout)
            exception = "SupervisorTimeout"
        else:
            detail = ("worker died without a result (exitcode %r)"
                      % worker.proc.exitcode)
            exception = "WorkerLost"
        message = "job %r %s: %s" % (job.spec.key, category, detail)
        failure = JobFailure(job.spec.key, category, exception, message,
                             attempts=job.attempts, transient=True)
        self.settle(job, JobResult(job.spec.key, error=message,
                                   failure=failure), failure)
        if self.queue or self.busy:
            self.spawn()

    def shutdown(self, clean):
        """Stop every worker.  After a clean sweep all are idle and are
        asked to exit; after an exception one may be mid-message, so all
        are killed."""
        for worker in self.live:
            if not clean:
                worker.proc.kill()
                continue
            try:
                worker.conn.send(None)
            except OSError:  # died while idle
                pass
        for worker in self.live:
            worker.proc.join()
            worker.conn.close()

    def run(self, workers):
        """Start ``workers`` warm workers and run the queue dry.

        The parent blocks in ``multiprocessing.connection.wait`` on the
        busy workers' pipes until a result (or a dead worker's EOF)
        arrives, a wall deadline passes, or — only while a worker sits
        idle — a queued retry's backoff gate opens.  A worker is
        SIGKILLed only on its wall timeout; a killed or dead worker is
        replaced while work remains.
        """
        import multiprocessing.connection as mpc

        queue = self.queue
        clean = False
        try:
            for _ in range(workers):
                self.spawn()
            while queue or self.busy:
                now = time.monotonic()
                for job in [job for job in queue if job.not_before <= now]:
                    if not self.idle:
                        break
                    queue.remove(job)
                    self.dispatch(job)
                if not self.busy:
                    if queue:
                        # everything queued is backing off: sleep to the gate
                        gate = min(job.not_before for job in queue)
                        self.sup.sleep(max(0.0, gate - time.monotonic()))
                    continue

                deadlines = [worker.deadline for worker in self.busy.values()
                             if worker.deadline is not None]
                if self.idle and queue:
                    deadlines.append(min(job.not_before for job in queue))
                timeout = None
                if deadlines:
                    timeout = max(0.0, min(deadlines) - time.monotonic())
                for conn in mpc.wait(list(self.busy), timeout):
                    self.receive(self.busy[conn])
                now = time.monotonic()
                for worker in list(self.busy.values()):
                    if worker.deadline is not None and now >= worker.deadline:
                        self.replace(worker, "timeout")
            clean = True
        finally:
            self.shutdown(clean)
