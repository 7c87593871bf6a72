"""STM-as-a-service: a transactional ledger server on the simulator.

The package turns the batch-oriented STM harness into a *serving* system
so latency under load — not just end-to-end throughput — becomes a
measurable, reproducible quantity per STM variant:

* :mod:`repro.service.arrivals` — deterministic open-loop load (Poisson
  and bursty arrival processes over simulated cycles);
* :mod:`repro.service.admission` — token-bucket admission control and
  the bounded shed-and-count ingress queue;
* :mod:`repro.service.latency` — exact nearest-rank latency percentiles;
* :mod:`repro.service.server` — :class:`LedgerService`, the batching
  engine that drains the ingress queue into transactional kernel
  launches and timestamps every request (arrival → enqueue → launch →
  commit) in simulated cycles;
* :mod:`repro.service.sweep` — the offered-load × variant × skew
  benchmark driver on the shared sweep layer
  (:mod:`repro.harness.sweep`);
* :mod:`repro.service.cli` — the ``python -m repro service`` entry point.

See ``docs/service.md`` for the architecture and methodology.
"""

from repro.service.admission import BoundedQueue, TokenBucket
from repro.service.arrivals import ARRIVAL_KINDS, make_arrivals
from repro.service.latency import percentile, summarize
from repro.service.server import (
    ClosedLoopSource,
    LedgerService,
    OpenLoopSource,
    ServiceConfig,
    ServiceOutcome,
)
from repro.service.sweep import (
    ServiceJobSpec,
    build_specs,
    execute_service_job,
    run_service_sweep,
)

__all__ = [
    "ARRIVAL_KINDS",
    "BoundedQueue",
    "ClosedLoopSource",
    "LedgerService",
    "OpenLoopSource",
    "ServiceConfig",
    "ServiceJobSpec",
    "ServiceOutcome",
    "TokenBucket",
    "build_specs",
    "execute_service_job",
    "make_arrivals",
    "percentile",
    "run_service_sweep",
    "summarize",
]
