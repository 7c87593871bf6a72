"""Schedule exploration: pluggable warp schedulers, record/replay, fuzzing.

The paper's failure modes — section 2.2 livelock, opacity violations under
adversarial commit orderings — only manifest under *specific interleavings*.
This package turns the simulator's single fixed schedule into an explorable
space:

* :mod:`repro.sched.policy` — the :class:`SchedulingPolicy` interface and
  the built-in policies (round robin, seeded random, greedy-then-oldest,
  adversarial lock-holder starvation);
* :mod:`repro.sched.trace` — :class:`ScheduleTrace` record/replay: any
  launch's issue trace serializes to JSON and re-executes deterministically
  through a :class:`ReplayPolicy`;
* :mod:`repro.sched.fuzz` — :class:`~repro.sched.fuzz.ExploreCell`, the
  one captured-run sweep cell (a capture-mode
  :func:`~repro.harness.runner.run_workload`: oracle check, transaction
  ledger, optional recorded traces, mutant, sanitizer and fault plan)
  that the ``fuzz``, ``sanitize`` and ``inject`` targets run as grids;
  and the interleaving fuzzer: one grid of N seeded schedules per
  (workload, variant), a resumable sweep with a summary JSON, whose
  reduce delta-debugs each failure to a minimal failing schedule.

``fuzz`` pulls in the workload and harness layers; import it as a
submodule (``from repro.sched import fuzz``) so that the GPU scheduler's
dependency on :mod:`repro.sched.policy` stays feather-light.
"""

from repro.sched.policy import (
    POLICIES,
    Adversarial,
    GreedyThenOldest,
    RoundRobin,
    SchedulingPolicy,
    SeededRandom,
    make_policy,
)
from repro.sched.trace import ReplayPolicy, ScheduleTrace

__all__ = [
    "POLICIES",
    "Adversarial",
    "GreedyThenOldest",
    "ReplayPolicy",
    "RoundRobin",
    "SchedulingPolicy",
    "ScheduleTrace",
    "SeededRandom",
    "make_policy",
]
