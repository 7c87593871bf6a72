"""Fault injection, online sanitizing, and mutant-efficacy campaigns.

The checker stack of this reproduction — the strict-serializability oracle
(:mod:`repro.stm.oracle`), the interleaving fuzzer (:mod:`repro.sched.fuzz`)
and the online sanitizer added here — argues that the GPU-STM protocols are
correct.  This package supplies the *evidence that the checkers themselves
work*: deterministic fault injection at the simulator's memory/lock/clock/
scheduler seams, an online invariant checker (the sanitizer), and a corpus
of seeded protocol bugs (mutants) with a campaign driver that proves every
mutant is caught by at least one checker while the unmutated runtimes stay
clean.

Layers:

* :mod:`repro.faults.plan` — :class:`FaultSpec`/:class:`FaultPlan` describe
  seeded, deterministic trigger points in one grammar for twelve kinds:
  crash kinds (broken hardware: lost or torn stores, stale reads, failed
  CAS, stuck clocks, stalled warps) and byzantine kinds (designated lanes
  that *lie* in validation, in published metadata, in replayed versions
  while the runtime stays correct).  :class:`FaultInjector` is the armed
  form a :class:`~repro.gpu.scheduler.Device` consults.  Zero cost when no
  plan is armed (the golden-cycle tests pin bit-identical cycles).
* :mod:`repro.faults.sanitizer` — :class:`StmSanitizer`, the online
  invariant checker in the runtime's observer slot (:mod:`repro.stm.trace`).
* :mod:`repro.faults.mutants` — the seeded-bug corpus, applied as
  reversible patches to any runtime instance; a cell names one by its
  ``mutant`` field and the worker applies it.
* :mod:`repro.faults.campaign` — the mutant x checker efficacy matrix:
  a grid of the one captured-run cell,
  :class:`~repro.harness.parallel.ExploreCell` (the cell ``fuzz``,
  ``sanitize``, ``byz`` and ``multigpu`` run too), on the shared sweep
  layer (:mod:`repro.harness.sweep`), folded into matrix cells by a
  reduce.
* :mod:`repro.faults.byzcampaign` — the behavior x variant resilience
  matrix (containment, blast radius, detection latency): a grid of the
  same cell, each armed one with one byzantine kind, folded into
  matrix cells by a pure reduce; ``python -m repro byz`` runs it.

The injector and the sanitizer are *probes* of
:class:`~repro.gpu.thread.ProbedThreadCtx`: each implements the seams it
needs (``read``/``write``/``atomic``/``event``) itself, so they combine
with each other, with the telemetry timeline and with multi-device link
accounting on one launch.

See ``docs/fault_injection.md`` for the full tour.
"""

from repro.faults.byzcampaign import render_byz_matrix, run_byz_campaign
from repro.faults.campaign import run_campaign, render_matrix
from repro.faults.mutants import MUTANTS, Mutant, MutantRuntimeFactory
from repro.faults.plan import (
    BYZ_KINDS,
    FAULT_KINDS,
    FaultInjector,
    FaultPlan,
    FaultSpec,
)
from repro.faults.sanitizer import SanitizerViolation, StmSanitizer

__all__ = [
    "BYZ_KINDS",
    "FAULT_KINDS",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "MUTANTS",
    "Mutant",
    "MutantRuntimeFactory",
    "SanitizerViolation",
    "StmSanitizer",
    "render_byz_matrix",
    "render_matrix",
    "run_byz_campaign",
    "run_campaign",
]
