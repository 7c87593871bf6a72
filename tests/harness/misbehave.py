"""A sweep executor that misbehaves on purpose, on chosen attempts.

The executor's tests prove retry, the wall timeout and worker
replacement work by handing :func:`~repro.harness.parallel.run_jobs` a
:class:`Misbehaving` executor: it wraps a real one and, on the attempts a
cell's :class:`Event` names, does one of four things instead of (or
before) running the cell:

* ``error`` — returns a failed :class:`TransientJobError` result;
* ``sigkill`` — SIGKILLs its worker process (the supervisor sees a dead
  worker with no result: ``worker-lost``);
* ``hang`` — sleeps ``hang_seconds`` (the wall timeout must reap it);
* ``stall`` — runs the cell once with ``faults`` joined to its own
  ``fault_plan`` and ``max_steps`` (unless ``None``) overriding its step
  budget, then fails the attempt as transient whatever the run did, so
  the clean retry alone decides the sweep's output.

Workers are separate processes, so an attempt's number cannot live in
the wrapper: each attempt claims the next free ``<key>.<n>`` file of
``counter_dir`` with ``O_EXCL``, and ``n`` is its zero-based number.
The wrapper is module-level plain data, so it pickles into workers.
"""

import dataclasses
import hashlib
import os
import signal
import time

from repro.harness.parallel import (
    JobFailure,
    JobResult,
    TransientJobError,
    execute_job,
)

KINDS = ("error", "sigkill", "hang", "stall")

STALL = "warp_stall:sm=0,warp=0,after=10,duration=2000000"


@dataclasses.dataclass(frozen=True)
class Event:
    """What goes wrong (``kind``, one of :data:`KINDS`) and on which
    zero-based ``attempts`` of a cell (default: the first only)."""

    kind: str
    attempts: tuple = (0,)
    hang_seconds: float = 3600.0
    faults: tuple = (STALL,)
    max_steps: int = 20_000

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError("unknown misbehaviour %r (one of %s)"
                             % (self.kind, ", ".join(KINDS)))


def _transient(spec, message):
    failure = JobFailure.from_exception(spec.key, TransientJobError(message))
    return JobResult(spec.key, error=message, failure=failure)


class Misbehaving:
    """``executor`` wrapped with ``events`` (``{cell key: Event}``)."""

    def __init__(self, counter_dir, events, executor=execute_job):
        self.counter_dir = str(counter_dir)
        self.events = dict(events)
        self.executor = executor
        self.parent_pid = os.getpid()

    def next_attempt(self, key):
        """Claim and return the next attempt number of the cell ``key``."""
        stem = os.path.join(self.counter_dir,
                            hashlib.sha256(repr(key).encode()).hexdigest())
        attempt = 0
        while True:
            try:
                os.close(os.open("%s.%d" % (stem, attempt),
                                 os.O_CREAT | os.O_EXCL | os.O_WRONLY))
                return attempt
            except FileExistsError:
                attempt += 1

    def __call__(self, spec):
        attempt = self.next_attempt(spec.key)
        event = self.events.get(spec.key)
        if event is None or attempt not in event.attempts:
            return self.executor(spec)
        where = "attempt %d of %r" % (attempt, spec.key)
        if event.kind == "error":
            return _transient(spec, "injected error on " + where)
        if event.kind in ("sigkill", "hang"):
            if os.getpid() == self.parent_pid:
                raise RuntimeError("refusing to %s the test process on %s "
                                   "(run it with jobs > 1)"
                                   % (event.kind, where))
            if event.kind == "sigkill":
                os.kill(os.getpid(), signal.SIGKILL)
            time.sleep(event.hang_seconds)
            return _transient(spec, "hang of %s outlived its nap" % where)
        overrides = dict(spec.gpu_overrides or {})
        if event.max_steps is not None:
            overrides["max_steps"] = event.max_steps
        stalled = spec.clone(
            fault_plan=list(spec.fault_plan or []) + list(event.faults),
            gpu_overrides=overrides)
        inner = self.executor(stalled)
        detail = inner.brief_error() if inner.failed else "run completed"
        return _transient(spec, "stalled %s -- %s" % (where, detail))
