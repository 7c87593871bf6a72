"""Schedule exploration: pluggable warp schedulers, record/replay, fuzzing.

The paper's failure modes — section 2.2 livelock, opacity violations under
adversarial commit orderings — only manifest under *specific interleavings*.
This package turns the simulator's single fixed schedule into an explorable
space:

* :mod:`repro.sched.policy` — the :class:`SchedulingPolicy` interface and
  the built-in policies (round robin, seeded random, adversarial
  lock-holder starvation);
* :mod:`repro.sched.trace` — :class:`ScheduleTrace` record/replay: any
  launch's issue trace serializes to JSON and re-executes deterministically
  through a :class:`ReplayPolicy`;
* :mod:`repro.sched.fuzz` — the interleaving fuzzer: one grid of N
  seeded schedules per (workload, variant) of the one captured-run cell
  (:class:`~repro.harness.parallel.ExploreCell`), a resumable sweep with
  a summary JSON, whose reduce delta-debugs each failure to a minimal
  failing schedule.

``fuzz`` pulls in the workload and harness layers; import it as a
submodule (``from repro.sched import fuzz``) so that the GPU scheduler's
dependency on :mod:`repro.sched.policy` stays feather-light.
"""

from repro.sched.policy import (
    POLICIES,
    Adversarial,
    RoundRobin,
    SchedulingPolicy,
    SeededRandom,
    make_policy,
)
from repro.sched.trace import ReplayPolicy, ScheduleTrace

__all__ = [
    "POLICIES",
    "Adversarial",
    "ReplayPolicy",
    "RoundRobin",
    "SchedulingPolicy",
    "ScheduleTrace",
    "SeededRandom",
    "make_policy",
]
