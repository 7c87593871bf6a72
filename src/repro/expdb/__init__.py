"""Experiment database and run provenance (`docs/observability.md`).

``repro.expdb`` turns every sweep in the repo into a queryable,
hash-pinned record.  Three layers:

* :mod:`repro.expdb.provenance` — one snapshot function answering "which
  code, interpreter and environment produced this run" (git SHA + dirty
  flag, package versions, hostname-free environment summary);
* :mod:`repro.expdb.db` — the SQLite experiment database: one row per
  recorded run carrying the sweep's spec fingerprints (the same sha256
  hashes the journal resumes against), merged telemetry metrics, the
  failure taxonomy, and SHA-256s of every emitted artifact;
* :mod:`repro.expdb.recorder` — builds those rows from a finished sweep.

``python -m repro db`` (:mod:`repro.expdb.cli`) shows, reports on and
verifies runs; ``python -m repro reproduce`` (:mod:`repro.expdb.reproduce`)
regenerates every figure/table through the journaled, retried sweep
executor and records
the whole bundle.

The database records what a sweep computed, not how fast the simulator
ran.  Simulator performance has one ruler: ``python3 perfbench/run.py``,
whose workloads and metrics ``BENCHMARK.json`` declares and whose paired
parent-vs-change protocol is the "Noise" section of
``perfbench/README.md``.
"""

from repro.expdb.db import DEFAULT_DB_ENV, ExperimentDB, RunRecord, default_db_path
from repro.expdb.provenance import provenance_snapshot
from repro.expdb.recorder import SweepRecorder, hash_file, sweep_run_key

__all__ = [
    "DEFAULT_DB_ENV",
    "ExperimentDB",
    "RunRecord",
    "SweepRecorder",
    "default_db_path",
    "hash_file",
    "provenance_snapshot",
    "sweep_run_key",
]
