"""Process-parallel execution of independent experiment runs.

Every figure/table of the paper is a sweep of independent ``run_workload``
calls: each run builds its own fresh :class:`~repro.gpu.memory.GlobalMemory`
and :class:`~repro.gpu.scheduler.Device`, so runs share no state and their
results do not depend on execution order.  That makes the sweeps trivially
parallel across *processes* (the simulator is pure Python, so threads would
serialize on the GIL).

The unit of work is a :class:`Cell` — a picklable, declarative dataclass
describing one run.  There are three kinds, each with one executor:
:class:`JobSpec` (:func:`execute_job`) is a raise-mode run on the bench
geometry, the figures' cell; :class:`ExploreCell`
(:func:`execute_explore`) is a captured run on the exploration
geometry, serving the ``fuzz``, ``sanitize``, ``inject``, ``byz`` and
``multigpu`` targets; the ledger service declares
``ServiceJobSpec`` next to its executor.  A worker process rebuilds the
run from the cell inside :func:`capture` and ships back a
:class:`JobResult`.
Exceptions inside a worker (``ProgressError`` watchdog trips,
``EgpgvCapacityError`` past the crash-tolerant paths, verification
failures) are captured into the result instead of killing the pool, so
one diverging design point cannot take down a whole sweep.

:func:`run_jobs` is the one way cells run: journal resume, retries,
wall-clock timeouts and the ``supervisor.*`` counters apply at
every worker count.  It preserves spec order in its result list, so a
sweep assembled from the results is bit-identical to the serial run no
matter how many workers raced, and ``jobs=1`` runs every attempt in this
process (the default: correct everywhere, including environments where
multiprocessing is restricted).

The worker count comes from, in order: the ``jobs`` argument, the
``REPRO_JOBS`` environment variable (an integer >= 1), else 1.
"""

import dataclasses
import os
import pickle
import re
import time
import traceback

from repro.gpu.errors import LivelockError, ProgressError
from repro.harness import configs
from repro.harness.runner import run_workload
from repro.telemetry import MetricRegistry, Telemetry
from repro.workloads import make_workload

DEFAULT_JOBS_ENV = "REPRO_JOBS"


class TransientJobError(RuntimeError):
    """A job failure the supervisor may retry (environment-induced: a
    starved worker, a stalled warp window, memory pressure).  Raising it
    — or wrapping another exception in it — marks the attempt transient;
    everything else is treated as deterministic and fails without
    retry."""


def classify_exception(exc):
    """Map an exception to ``(category, transient)`` — the supervision
    layer's failure taxonomy (see docs/resilience.md).

    Deterministic simulator outcomes are never transient: the same spec
    replays to the same watchdog trip, so retrying a livelock or a
    suspected deadlock is wasted work.  Transience comes from the
    *environment* (killed or starved workers, memory pressure) or from an
    explicit :class:`TransientJobError`.
    """
    if isinstance(exc, LivelockError):
        return "livelock", False
    if isinstance(exc, ProgressError):
        return "deadlock", False
    if isinstance(exc, TransientJobError):
        return "transient", True
    if isinstance(exc, pickle.PicklingError):
        return "unpicklable", False
    if isinstance(exc, MemoryError):
        return "oom", True
    return "error", False


class JobFailure:
    """Structured description of one failed job: what, why, how often.

    Plain picklable data carried on :attr:`JobResult.failure` so sweeps,
    the supervisor and the journal can act on failures without parsing
    traceback strings.  ``category`` is one of the taxonomy names produced
    by :func:`classify_exception` plus the supervisor-level categories
    (``timeout``, ``worker-lost``).  ``transient`` records whether the
    supervisor considered the failure retryable; ``attempts`` how many
    attempts were made in total.
    """

    __slots__ = (
        "key", "category", "exception", "message", "traceback",
        "attempts", "transient",
    )

    def __init__(self, key, category, exception, message, traceback=None,
                 attempts=1, transient=False):
        self.key = key
        self.category = category
        self.exception = exception
        self.message = message
        self.traceback = traceback
        self.attempts = attempts
        self.transient = transient

    @classmethod
    def from_exception(cls, key, exc, attempts=1, tb=None):
        category, transient = classify_exception(exc)
        return cls(
            key,
            category,
            type(exc).__name__,
            str(exc),
            traceback=tb,
            attempts=attempts,
            transient=transient,
        )

    def as_dict(self):
        return {slot: getattr(self, slot) for slot in self.__slots__}

    def __getstate__(self):
        return self.as_dict()

    def __setstate__(self, state):
        for slot, value in state.items():
            setattr(self, slot, value)

    def brief(self):
        return "%s[%s] after %d attempt(s): %s" % (
            self.exception, self.category, self.attempts, self.message
        )


def default_jobs():
    """Worker count from the ``REPRO_JOBS`` environment variable, else 1;
    ``ValueError`` naming the variable unless it is an integer >= 1."""
    value = os.environ.get(DEFAULT_JOBS_ENV, "").strip()
    if not value:
        return 1
    if not value.isdigit() or int(value) < 1:
        raise ValueError("%s must be an integer >= 1, got %r"
                         % (DEFAULT_JOBS_ENV, value))
    return int(value)


class Cell:
    """The one sweep-cell protocol: plain, picklable, fingerprintable data.

    A sweep kind declares its cell once, as a :func:`cell` dataclass
    subclassing this; state, ``clone`` and ``repr`` are shared.  Every
    kind's fields include ``key`` (files the result and names the cell to
    the experiment DB) and ``gpu_overrides`` (``GpuConfig`` attribute
    overrides).  The state — what the journal fingerprints — is exactly
    the declared fields.

    On construction an optional dict/list field (default ``None``) is
    copied, and stored as ``None`` when empty; a required dict field is
    copied.  So a clone never aliases the original's containers.  A kind
    naming ``key_fields`` lets ``key`` default to those fields joined by
    ``/``.
    """

    #: for kinds that record no timeline; a kind that does declares it
    timeline_dir = None
    key_fields = ()

    def __post_init__(self):
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            optional = field.default is None
            if isinstance(value, dict):
                value = dict(value) if value or not optional else None
            elif optional and isinstance(value, (list, tuple)):
                value = list(value) if value else None
            setattr(self, field.name, value)
        if self.key is None and self.key_fields:
            self.key = "/".join(str(getattr(self, name))
                                for name in self.key_fields)

    def __getstate__(self):
        return {field.name: getattr(self, field.name)
                for field in dataclasses.fields(self)}

    def clone(self, **updates):
        """A copy with ``updates`` applied, never mutating the caller's
        cell."""
        return dataclasses.replace(self, **updates)

    def __repr__(self):
        return "%s(%r, %s)" % (type(self).__name__, self.key, self.variant)


#: the decorator every :class:`Cell` kind is declared with
cell = dataclasses.dataclass(repr=False, eq=False)


@cell
class JobSpec(Cell):
    """A picklable description of one ``run_workload`` call.

    ``key`` is an arbitrary (picklable) tag the sweep uses to file the
    result; it is carried through untouched.  ``gpu_overrides`` are
    attribute overrides applied to :func:`configs.bench_gpu` in the worker
    (e.g. ``{"warp_steps_per_turn": 8}``) — the spec carries plain data
    rather than a config object so it pickles cheaply and stays readable
    in logs.

    ``telemetry=True`` has the worker run under a fresh
    :class:`~repro.telemetry.Telemetry` session and ship the registry back
    as ``JobResult.metrics`` (a plain JSON-able dict; the parent merges
    them with :func:`merge_job_metrics`).  ``timeline_dir`` additionally
    records a per-run Chrome-trace timeline into that directory (implies
    telemetry) and sets ``JobResult.trace_path``.
    """

    key: object
    workload: str
    params: dict
    variant: str
    num_locks: int = configs.DEFAULT_NUM_LOCKS
    stm_overrides: dict = None
    gpu_overrides: dict = None
    verify: bool = True
    allow_crash: bool = False
    telemetry: bool = False
    timeline_dir: str = None
    fault_plan: list = None


class JobResult:
    """Outcome of one :class:`JobSpec`: a ``RunResult`` or a captured error.

    ``metrics`` carries the worker's serialized
    :class:`~repro.telemetry.MetricRegistry` (``as_dict`` form) when the
    spec requested telemetry; ``trace_path`` points at the per-run timeline
    artifact when one was recorded.  ``failure`` is the structured
    :class:`JobFailure` companion of ``error`` (the raw traceback string):
    always set together for a failed job.  ``wall_seconds`` is the time
    :func:`capture` spent in the cell's body (``None`` when no body ran).
    """

    __slots__ = ("key", "run", "error", "metrics", "trace_path", "failure",
                 "wall_seconds")

    def __init__(self, key, run=None, error=None, metrics=None,
                 trace_path=None, failure=None):
        self.key = key
        self.run = run
        self.error = error
        self.metrics = metrics
        self.trace_path = trace_path
        self.failure = failure
        self.wall_seconds = None

    def __getstate__(self):
        return {slot: getattr(self, slot) for slot in self.__slots__}

    def __setstate__(self, state):
        self.metrics = None
        self.trace_path = None
        self.failure = None
        self.wall_seconds = None
        for slot, value in state.items():
            setattr(self, slot, value)

    @classmethod
    def from_exception(cls, key, exc):
        """A failed result for ``exc``, raised while handling it."""
        tb = traceback.format_exc()
        return cls(key, error=tb,
                   failure=JobFailure.from_exception(key, exc, tb=tb))

    @property
    def failed(self):
        return self.error is not None

    def as_failure(self):
        """The structured :class:`JobFailure` of a failed result (built
        from the traceback when only that was kept), else ``None``."""
        if not self.failed:
            return None
        if self.failure is not None:
            return self.failure
        return JobFailure(self.key, "error", "Error",
                          self.brief_error() or "unknown failure",
                          traceback=self.error)

    def brief_error(self):
        """One-line description of the failure (structured when possible)."""
        if self.failure is not None:
            return self.failure.brief()
        if self.error is not None:
            return self.error.strip().splitlines()[-1]
        return None

    def unwrap(self):
        """Return the ``RunResult``; re-raise a captured worker error."""
        if self.error is not None:
            raise RuntimeError(
                "experiment job %r failed in worker:\n%s" % (self.key, self.error)
            )
        return self.run


def _slug(key):
    """Filesystem-safe name for a job key (used for timeline filenames)."""
    return re.sub(r"[^A-Za-z0-9._-]+", "_", str(key)).strip("_") or "job"


def capture(spec, body):
    """Run ``body(spec, telemetry)`` as one cell; never raises.

    The one executor wrapper every sweep kind shares: the body's return
    value becomes ``JobResult.run``; an exception becomes a failed
    ``JobResult`` with its :class:`JobFailure`.  ``spec.telemetry`` (or a
    ``timeline_dir``) opens a fresh :class:`~repro.telemetry.Telemetry`
    session for the body, whose registry ships back as
    ``JobResult.metrics``; ``timeline_dir`` also writes the run's
    Chrome-trace timeline there and sets ``JobResult.trace_path``.  The
    body's wall time lands in ``JobResult.wall_seconds``.
    """
    tel = None
    if spec.telemetry or spec.timeline_dir is not None:
        tel = Telemetry(
            timeline=spec.timeline_dir is not None,
            meta={
                "job": str(spec.key),
                "workload": spec.workload,
                "variant": spec.variant,
            },
        )
    started = time.perf_counter()
    try:
        result = JobResult(spec.key, run=body(spec, tel))
    except Exception as exc:  # noqa: BLE001 - captured per cell
        result = JobResult.from_exception(spec.key, exc)
    result.wall_seconds = time.perf_counter() - started
    if tel is not None:
        result.metrics = tel.registry.as_dict()
        if spec.timeline_dir is not None and tel.timeline is not None:
            os.makedirs(spec.timeline_dir, exist_ok=True)
            path = os.path.join(
                spec.timeline_dir, "%s.trace.json" % _slug(spec.key)
            )
            tel.write_timeline(path)
            result.trace_path = path
    return result


def _run_job(spec, telemetry):
    return run_workload(
        make_workload(spec.workload, **spec.params),
        spec.variant,
        configs.override_gpu(configs.bench_gpu(), spec.gpu_overrides),
        num_locks=spec.num_locks,
        stm_overrides=spec.stm_overrides,
        verify=spec.verify,
        allow_crash=spec.allow_crash,
        telemetry=telemetry,
        fault_plan=spec.fault_plan,
    )


def execute_job(spec):
    """Run one :class:`JobSpec` in the current process; never raises.

    Module-level (not a closure) so it pickles into worker processes.
    """
    return capture(spec, _run_job)


@cell
class ExploreCell(Cell):
    """One captured run on the exploration geometry (plain data).

    ``gpu_overrides`` apply to :func:`configs.explore_gpu`.  ``mutant``
    names a :data:`~repro.faults.mutants.MUTANTS` entry the worker applies
    to the runtime; ``sanitize`` binds a fresh
    :class:`~repro.faults.sanitizer.StmSanitizer`; ``telemetry`` runs the
    cell under a fresh telemetry session whose registry ships back as
    ``JobResult.metrics``.  ``key`` defaults to ``workload/variant/policy``.
    """

    workload: str
    params: dict
    variant: str
    policy: object
    key: object = None
    num_locks: int = 16
    stm_overrides: dict = None
    gpu_overrides: dict = None
    fault_plan: list = None
    mutant: str = None
    sanitize: bool = False
    telemetry: bool = False

    key_fields = ("workload", "variant", "policy")


def _explore(spec, telemetry=None, record=False):
    """The captured run ``spec`` describes; returns its ``RunResult``.

    No sweep records: ``record=True`` (the fuzzer re-running a failing
    cell to shrink and replay it) keeps the issue schedule in ``traces``.
    """
    # imported here: the figure sweeps must not pay for the faults stack
    runtime_factory = sanitizer = None
    if spec.mutant is not None:
        from repro.faults.mutants import MutantRuntimeFactory

        runtime_factory = MutantRuntimeFactory(spec.mutant)
    if spec.sanitize:
        from repro.faults.sanitizer import StmSanitizer

        sanitizer = StmSanitizer()
    return run_workload(
        make_workload(spec.workload, **spec.params),
        spec.variant,
        configs.override_gpu(configs.explore_gpu(), spec.gpu_overrides),
        spec.policy,
        num_locks=spec.num_locks,
        stm_overrides=spec.stm_overrides,
        capture=True,
        record=record,
        runtime_factory=runtime_factory,
        telemetry=telemetry,
        sanitizer=sanitizer,
        fault_plan=spec.fault_plan,
    )


def execute_explore(spec):
    """Run one :class:`ExploreCell`; its ``JobResult.run`` is the
    ``RunResult`` (module-level, so it pickles into workers)."""
    return capture(spec, _explore)


def merge_job_metrics(results, into=None):
    """Merge the per-worker registries of ``results`` into one registry.

    Counters sum, gauges take the last non-``None`` value, histograms merge
    bucket-wise — the aggregation half of the telemetry layer's
    cross-process story.  ``into`` (a :class:`MetricRegistry`) accumulates
    in place when given; results without metrics are skipped.
    """
    merged = into if into is not None else MetricRegistry()
    for result in results:
        if result.metrics is None:
            continue
        merged.merge(MetricRegistry.from_dict(result.metrics))
    return merged


def run_jobs(specs, jobs=None, executor=None, retries=0, timeout=None,
             journal=None, metrics=None, recorder=None, sleep=time.sleep):
    """Execute ``specs``; return the executor's results in spec order.

    The one sweep executor.  ``executor`` maps one spec to one
    :class:`JobResult` and must never raise; it defaults to
    :func:`execute_job` (the figure sweeps' worker).  Other sweeps —
    e.g. the captured runs' :func:`execute_explore` — pass their own,
    built on :func:`capture`; at ``jobs > 1`` it must be a module-level
    callable so it pickles into worker processes.

    In order, ``run_jobs``:

    * loads ``journal`` (a path, closed on return, or a
      :class:`~repro.harness.journal.SweepJournal`) and serves every spec
      whose fingerprint it already holds without running it;
    * counts ``supervisor.*`` into ``metrics`` (a ``MetricRegistry``),
      else into a throwaway registry;
    * runs attempts in this process when ``jobs <= 1``, else on
      ``min(jobs, pending specs)`` warm worker processes
      (:mod:`repro.harness.supervisor`).  A worker runs many specs, so
      per-process state an executor keeps persists across them.  A spec
      or result that cannot cross the worker pipe fails that spec alone
      as ``unpicklable``; a worker that dies fails its attempt as
      ``worker-lost`` and is replaced; ``timeout`` (seconds) SIGKILLs a
      worker whose attempt outlives it;
    * retries transient failures up to ``retries`` times with backoff
      (``sleep`` is injectable so tests skip the wait); deterministic
      failures never retry;
    * journals every finished spec;
    * calls ``recorder(specs, results, registry)`` — typically a
      :class:`~repro.expdb.recorder.SweepRecorder` — once.

    ``jobs`` defaults to ``$REPRO_JOBS``, else 1.  At ``jobs <= 1`` a
    ``timeout`` raises ``ValueError``: nothing could stop an in-process
    attempt.  Ordering, and therefore every figure built from the
    results, is identical at every width.
    """
    # imported here: importing this module must not pay for the
    # supervision stack
    from repro.harness.journal import SweepJournal, spec_fingerprint
    from repro.harness.supervisor import Job, Supervisor

    specs = list(specs)
    if jobs is None:
        jobs = default_jobs()
    serial = jobs <= 1
    if serial and timeout is not None:
        raise ValueError(
            "timeout needs worker processes (jobs > 1): an in-process "
            "attempt cannot be stopped"
        )
    registry = metrics if metrics is not None else MetricRegistry()
    own_journal = journal is not None and not isinstance(journal, SweepJournal)
    if own_journal:
        journal = SweepJournal(journal)
    try:
        completed = journal.load() if journal is not None else {}
        results = [None] * len(specs)
        pending = []
        for index, spec in enumerate(specs):
            fingerprint = spec_fingerprint(spec)
            if fingerprint in completed:
                results[index] = completed[fingerprint]
                registry.add("supervisor.jobs.resumed")
            else:
                pending.append(Job(index, spec, fingerprint))
        registry.add("supervisor.jobs.total", len(specs))
        registry.add("supervisor.jobs.executed", len(pending))
        sup = Supervisor(executor or execute_job, retries, timeout, journal,
                         registry, sleep, results)
        if serial:
            sup.run_in_process(pending)
        elif pending:
            sup.run_on_workers(pending, min(jobs, len(pending)))
    finally:
        if own_journal:
            journal.close()
    if recorder is not None:
        recorder(specs, results, registry)
    return results
