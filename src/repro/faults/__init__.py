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
  seeded, deterministic trigger points; :class:`FaultInjector` is the armed
  form a :class:`~repro.gpu.scheduler.Device` consults.  Zero cost when no
  plan is armed (the golden-cycle tests pin bit-identical cycles).
* :mod:`repro.faults.sanitizer` — :class:`StmSanitizer`, the online
  invariant checker speaking the TxTracer event protocol.

The injectors and the sanitizer are *probes* of
:class:`~repro.gpu.thread.ProbedThreadCtx`: each implements the seams it
needs (``read``/``write``/``atomic``/``event``) itself, so they combine
with each other, with the telemetry timeline and with multi-device link
accounting on one launch.
* :mod:`repro.faults.mutants` — the seeded-bug corpus, applied as
  reversible patches to any runtime instance.
* :mod:`repro.faults.campaign` — the mutant x checker efficacy matrix,
  :class:`~repro.faults.campaign.CampaignJob` cells on the shared sweep
  layer (:mod:`repro.harness.sweep`).
* :mod:`repro.faults.byzantine` — :class:`ByzantinePlan`, the adversarial
  extension: designated lanes that *lie* (in validation, in published
  metadata, in replayed versions) while the runtime stays correct.
* :mod:`repro.faults.byzcampaign` — the behavior x variant resilience
  matrix (containment, blast radius, detection latency) of
  :class:`~repro.faults.byzcampaign.ByzJob` cells on the same sweep
  layer; the ``python -m repro byz`` driver.

See ``docs/fault_injection.md`` for the full tour.
"""

from repro.faults.byzantine import (
    BYZ_BEHAVIORS,
    ByzantineInjector,
    ByzantinePlan,
    ByzantineSpec,
)
from repro.faults.byzcampaign import render_byz_matrix, run_byz_campaign
from repro.faults.campaign import run_campaign, render_matrix
from repro.faults.mutants import MUTANTS, Mutant, MutantRuntimeFactory
from repro.faults.plan import FAULT_KINDS, FaultInjector, FaultPlan, FaultSpec
from repro.faults.sanitizer import SanitizerViolation, StmSanitizer

__all__ = [
    "BYZ_BEHAVIORS",
    "ByzantineInjector",
    "ByzantinePlan",
    "ByzantineSpec",
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
