"""Build experiment-DB run records from finished sweeps.

:class:`SweepRecorder` is the seam the execution layer calls: every
:func:`~repro.harness.parallel.run_jobs` call given a ``recorder`` hands it
``(specs, results, metrics)`` once, at sweep completion, and the recorder
turns that into one :class:`~repro.expdb.db.RunRecord` — per-spec journal
fingerprints, merged telemetry, the failure taxonomy, summed simulated
cycles and a compact per-cell summary — and inserts it.  Artifacts
written *after* the sweep (summary JSONs, rendered tables, timelines) are
attached to the same run with :meth:`SweepRecorder.add_artifacts`.

The run key is :func:`sweep_run_key`: sha256 over the experiment name and
the ordered per-spec fingerprints (the same
:func:`~repro.harness.journal.spec_fingerprint` hashes the sweep journal
checkpoints under).  Identical work therefore records an identical key in
every process on every machine — that is what lets ``db diff`` line two
runs up and the CI smoke assert a journal-resumed rerun recorded against
the same fingerprints.
"""

import hashlib
import time

from repro.harness.journal import spec_fingerprint


def hash_file(path, chunk_size=1 << 20):
    """``(hex sha256, byte size)`` of one file, streamed."""
    digest = hashlib.sha256()
    size = 0
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(chunk_size)
            if not chunk:
                break
            digest.update(chunk)
            size += len(chunk)
    return digest.hexdigest(), size


def sweep_run_key(experiment, fingerprints):
    """Deterministic run key: experiment name + ordered spec fingerprints."""
    digest = hashlib.sha256()
    digest.update(str(experiment).encode("utf-8"))
    for fingerprint in fingerprints:
        digest.update(b"\x00")
        digest.update(str(fingerprint).encode("ascii"))
    return digest.hexdigest()


def _cell_summary(run):
    """A compact deterministic summary of one job's payload, or ``None``.

    Understands the two payload shapes the sweeps produce:
    :class:`~repro.harness.runner.RunResult` (via ``as_summary``; every
    figure and captured-run cell) and the service's ``ServiceOutcome``
    (same method).  Any other payload (a custom executor's) is
    skipped.
    """
    as_summary = getattr(run, "as_summary", None)
    if as_summary is None:
        return None
    try:
        return as_summary()
    except Exception:  # noqa: BLE001 - a summary must never sink a record
        return None


def build_record(experiment, specs=(), results=(), metrics=None,
                 provenance=None, seed=None, wall_seconds=None,
                 summary=None, artifacts=()):
    """Assemble a :class:`~repro.expdb.db.RunRecord` from sweep output.

    ``metrics`` is a :class:`~repro.telemetry.MetricRegistry`, its
    ``as_dict`` payload, or ``None``; per-worker metrics still attached
    to ``results`` are merged in either way.  ``artifacts`` is an
    iterable of paths (hashed here) or pre-hashed ``(path, sha256,
    bytes)`` tuples.
    """
    from repro.expdb.db import RunRecord
    from repro.expdb.provenance import provenance_snapshot

    specs = list(specs)
    results = list(results)
    fingerprints = [spec_fingerprint(spec) for spec in specs]
    spec_keys = [repr(spec.key) for spec in specs]

    merged = _merged_metrics(results, metrics)

    failures = {}
    sim_cycles = 0
    cells = {}
    jobs_failed = 0
    for spec, result in zip(specs, results):
        key = str(spec.key)
        if result.failed:
            jobs_failed += 1
            category = result.as_failure().category
            failures[category] = failures.get(category, 0) + 1
            cells[key] = {"failed": True, "category": category}
            continue
        run = result.run
        cycles = getattr(run, "cycles", None)
        if isinstance(cycles, int):
            sim_cycles += cycles
        cell = _cell_summary(run)
        if cell is not None:
            cells[key] = cell

    full_summary = dict(summary) if summary else {}
    if cells:
        full_summary.setdefault("cells", cells)

    hashed = []
    for entry in artifacts:
        if isinstance(entry, (tuple, list)):
            hashed.append(tuple(entry))
        else:
            sha, size = hash_file(entry)
            hashed.append((str(entry), sha, size))

    return RunRecord(
        experiment,
        sweep_run_key(experiment, fingerprints),
        provenance=provenance if provenance is not None
        else provenance_snapshot(),
        seed=seed,
        jobs_total=len(specs) or None,
        jobs_failed=jobs_failed,
        wall_seconds=wall_seconds,
        sim_cycles=sim_cycles or None,
        summary=full_summary or None,
        fingerprints=fingerprints,
        spec_keys=spec_keys,
        metrics=merged,
        failures=failures,
        artifacts=hashed,
    )


def _merged_metrics(results, metrics):
    """One ``as_dict`` payload from the registry and per-result metrics."""
    from repro.telemetry import MetricRegistry

    merged = MetricRegistry()
    if metrics is not None:
        payload = metrics.as_dict() if hasattr(metrics, "as_dict") else metrics
        merged.merge(MetricRegistry.from_dict(payload))
    for result in results:
        if result.metrics:
            merged.merge(MetricRegistry.from_dict(result.metrics))
    payload = merged.as_dict()
    if not any(payload.get(kind) for kind in
               ("counters", "gauges", "histograms")):
        return None
    return payload


class SweepRecorder:
    """The callable ``recorder=`` hook of ``run_jobs``.

    Construct one per sweep with the database path (or an open
    :class:`~repro.expdb.db.ExperimentDB`) and the experiment name; the
    execution layer calls it once with the finished sweep.  After the
    artifacts are on disk, :meth:`add_artifacts` hashes and attaches
    them to the recorded run.

    ``run_id``/``run_key`` are available after the call — ``None`` until
    then.  A recorder is single-shot: recording twice raises, because
    one sweep is one run row.
    """

    def __init__(self, db, experiment, seed=None, summary=None):
        self.db = db
        self.experiment = experiment
        self.seed = seed
        self.summary = dict(summary) if summary else None
        self.run_id = None
        self.run_key = None
        self._started = time.perf_counter()

    def _open(self):
        from repro.expdb.db import ExperimentDB

        if isinstance(self.db, ExperimentDB):
            return self.db, False
        return ExperimentDB(self.db), True

    def __call__(self, specs, results, metrics=None):
        if self.run_id is not None:
            raise RuntimeError(
                "SweepRecorder for %r already recorded run %d"
                % (self.experiment, self.run_id)
            )
        record = build_record(
            self.experiment, specs=specs, results=results, metrics=metrics,
            seed=self.seed, summary=self.summary,
            wall_seconds=round(time.perf_counter() - self._started, 3),
        )
        db, own = self._open()
        try:
            self.run_id = db.record_run(record)
        finally:
            if own:
                db.close()
        self.run_key = record.run_key
        return self.run_id

    def add_artifacts(self, paths):
        """Hash ``paths`` and attach them to the recorded run."""
        if self.run_id is None:
            raise RuntimeError(
                "SweepRecorder for %r has not recorded a run yet"
                % (self.experiment,)
            )
        entries = []
        for path in paths:
            sha, size = hash_file(path)
            entries.append((str(path), sha, size))
        db, own = self._open()
        try:
            db.add_artifacts(self.run_id, entries)
        finally:
            if own:
                db.close()
        return entries
