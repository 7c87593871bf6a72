"""The SQLite experiment database: one queryable row per recorded run.

Schema (one database file, created on first open):

``runs``
    one row per recorded sweep/benchmark invocation — ``run_key`` (the
    sha256 fingerprint of the *work*: experiment name + every job spec's
    journal fingerprint, so the same sweep records the same key on every
    machine), provenance (git SHA/dirty, versions — see
    :mod:`repro.expdb.provenance`), seed, wall seconds, summed simulated
    cycles, and a JSON summary blob (per-cell outcomes);
``specs``
    the per-job sha256 fingerprints of the run, in spec order — the
    exact hashes the sweep journal checkpoints under, which is what
    makes journal↔DB consistency checkable;
``metrics``
    the run's merged :class:`~repro.telemetry.MetricRegistry`, flattened
    to (kind, name, value) rows so runs compare metric-by-metric in SQL;
``failures``
    the run's failure-taxonomy counts (livelock/deadlock/transient/
    timeout/worker-lost/oom/unpicklable/error);
``artifacts``
    SHA-256 + byte size of every artifact the run emitted, so a file on
    disk is verifiable against the run that claims to have produced it.

The simulator's own wall-clock performance is not recorded here:
``python3 perfbench/run.py`` measures it (workloads and metrics declared
in ``BENCHMARK.json``, the paired protocol in ``perfbench/README.md``,
"Noise").  A database written by an older build may still hold a table
of per-case steps/sec samples; nothing reads it, and it does not change
the schema version.

Everything stored is plain data; reads return dicts.  Timestamps are
recorded (UTC ISO-8601) but kept out of every deterministic surface —
``run_key``, spec fingerprints and artifact hashes depend only on what
was computed, never on when.
"""

import datetime
import json
import os
import sqlite3

#: environment variable naming the default database file
DEFAULT_DB_ENV = "REPRO_EXPDB"

#: fallback database path (relative to the invoking directory)
DEFAULT_DB_PATH = os.path.join("expdb", "experiments.sqlite")

SCHEMA_VERSION = 1

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS runs (
    id           INTEGER PRIMARY KEY AUTOINCREMENT,
    run_key      TEXT NOT NULL,
    experiment   TEXT NOT NULL,
    recorded_at  TEXT NOT NULL,
    git_sha      TEXT,
    git_dirty    INTEGER,
    seed         INTEGER,
    jobs_total   INTEGER,
    jobs_failed  INTEGER,
    wall_seconds REAL,
    sim_cycles   INTEGER,
    provenance   TEXT NOT NULL,
    summary      TEXT
);
CREATE INDEX IF NOT EXISTS idx_runs_key ON runs (run_key);
CREATE INDEX IF NOT EXISTS idx_runs_experiment ON runs (experiment);
CREATE TABLE IF NOT EXISTS specs (
    run_id      INTEGER NOT NULL REFERENCES runs (id),
    idx         INTEGER NOT NULL,
    fingerprint TEXT NOT NULL,
    key         TEXT
);
CREATE INDEX IF NOT EXISTS idx_specs_run ON specs (run_id);
CREATE TABLE IF NOT EXISTS metrics (
    run_id INTEGER NOT NULL REFERENCES runs (id),
    kind   TEXT NOT NULL,
    name   TEXT NOT NULL,
    value  REAL
);
CREATE INDEX IF NOT EXISTS idx_metrics_run ON metrics (run_id);
CREATE TABLE IF NOT EXISTS failures (
    run_id   INTEGER NOT NULL REFERENCES runs (id),
    category TEXT NOT NULL,
    count    INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS artifacts (
    run_id INTEGER NOT NULL REFERENCES runs (id),
    path   TEXT NOT NULL,
    sha256 TEXT NOT NULL,
    bytes  INTEGER NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_artifacts_run ON artifacts (run_id);
"""


def default_db_path():
    """The database file the CLIs use when no ``--db`` is given."""
    return os.environ.get(DEFAULT_DB_ENV, "").strip() or DEFAULT_DB_PATH


def _utcnow():
    return datetime.datetime.now(datetime.timezone.utc).strftime(
        "%Y-%m-%dT%H:%M:%SZ"
    )


class RunRecord:
    """Everything :meth:`ExperimentDB.record_run` stores for one run.

    Plain data, built either by hand (tests) or by
    :class:`~repro.expdb.recorder.SweepRecorder` from a finished sweep.
    ``fingerprints`` is the ordered list of per-spec sha256 hashes
    (``spec_keys`` the human-readable reprs riding along); ``metrics`` a
    ``{"counters": {...}, "gauges": {...}}``-shaped dict
    (:meth:`MetricRegistry.as_dict` form, histograms tolerated and
    flattened); ``artifacts`` an iterable of ``(path, sha256, bytes)``.
    """

    __slots__ = (
        "experiment", "run_key", "provenance", "seed", "jobs_total",
        "jobs_failed", "wall_seconds", "sim_cycles", "summary",
        "fingerprints", "spec_keys", "metrics", "failures", "artifacts",
    )

    def __init__(self, experiment, run_key, provenance=None, seed=None,
                 jobs_total=None, jobs_failed=None, wall_seconds=None,
                 sim_cycles=None, summary=None, fingerprints=(),
                 spec_keys=(), metrics=None, failures=None, artifacts=()):
        self.experiment = experiment
        self.run_key = run_key
        self.provenance = provenance if provenance is not None else {}
        self.seed = seed
        self.jobs_total = jobs_total
        self.jobs_failed = jobs_failed
        self.wall_seconds = wall_seconds
        self.sim_cycles = sim_cycles
        self.summary = summary
        self.fingerprints = list(fingerprints)
        self.spec_keys = list(spec_keys)
        self.metrics = metrics
        self.failures = dict(failures) if failures else {}
        self.artifacts = list(artifacts)


def _flatten_metrics(metrics):
    """(kind, name, value) rows from a registry ``as_dict`` payload.

    Gauges may hold non-numeric values (strings, None); those are
    skipped — the metrics table is for arithmetic, the summary blob
    keeps the rest.
    """
    rows = []
    if not metrics:
        return rows
    for name, value in sorted((metrics.get("counters") or {}).items()):
        if isinstance(value, (int, float)):
            rows.append(("counter", name, float(value)))
    for name, value in sorted((metrics.get("gauges") or {}).items()):
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            rows.append(("gauge", name, float(value)))
    for name, payload in sorted((metrics.get("histograms") or {}).items()):
        if isinstance(payload, dict):
            for field in ("count", "total"):
                value = payload.get(field)
                if isinstance(value, (int, float)):
                    rows.append(("histogram", "%s.%s" % (name, field),
                                 float(value)))
    return rows


class ExperimentDB:
    """Connection to (and creator of) one experiment database file."""

    def __init__(self, path):
        self.path = path
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        self._conn = sqlite3.connect(path)
        self._conn.row_factory = sqlite3.Row
        self._conn.executescript(_SCHEMA)
        self._conn.execute(
            "INSERT OR IGNORE INTO meta (key, value) VALUES (?, ?)",
            ("schema_version", str(SCHEMA_VERSION)),
        )
        self._conn.commit()
        version = self._conn.execute(
            "SELECT value FROM meta WHERE key = 'schema_version'"
        ).fetchone()["value"]
        if int(version) != SCHEMA_VERSION:
            raise ValueError(
                "experiment DB %s has schema version %s; this build reads %d"
                % (path, version, SCHEMA_VERSION)
            )

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def record_run(self, record):
        """Insert one :class:`RunRecord`; returns the new run id."""
        git = (record.provenance or {}).get("git") or {}
        dirty = git.get("dirty")
        cur = self._conn.execute(
            "INSERT INTO runs (run_key, experiment, recorded_at, git_sha,"
            " git_dirty, seed, jobs_total, jobs_failed, wall_seconds,"
            " sim_cycles, provenance, summary)"
            " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (
                record.run_key,
                record.experiment,
                _utcnow(),
                git.get("sha"),
                None if dirty is None else int(bool(dirty)),
                record.seed,
                record.jobs_total,
                record.jobs_failed,
                record.wall_seconds,
                record.sim_cycles,
                json.dumps(record.provenance, sort_keys=True),
                None if record.summary is None
                else json.dumps(record.summary, sort_keys=True, default=repr),
            ),
        )
        run_id = cur.lastrowid
        keys = list(record.spec_keys) + [None] * (
            len(record.fingerprints) - len(record.spec_keys)
        )
        self._conn.executemany(
            "INSERT INTO specs (run_id, idx, fingerprint, key)"
            " VALUES (?, ?, ?, ?)",
            [
                (run_id, idx, fingerprint, keys[idx])
                for idx, fingerprint in enumerate(record.fingerprints)
            ],
        )
        self._conn.executemany(
            "INSERT INTO metrics (run_id, kind, name, value)"
            " VALUES (?, ?, ?, ?)",
            [(run_id,) + row for row in _flatten_metrics(record.metrics)],
        )
        self._conn.executemany(
            "INSERT INTO failures (run_id, category, count) VALUES (?, ?, ?)",
            [
                (run_id, category, count)
                for category, count in sorted(record.failures.items())
            ],
        )
        self._conn.executemany(
            "INSERT INTO artifacts (run_id, path, sha256, bytes)"
            " VALUES (?, ?, ?, ?)",
            [(run_id,) + tuple(entry) for entry in record.artifacts],
        )
        self._conn.commit()
        return run_id

    def add_artifacts(self, run_id, entries):
        """Append ``(path, sha256, bytes)`` rows to an existing run."""
        self._conn.executemany(
            "INSERT INTO artifacts (run_id, path, sha256, bytes)"
            " VALUES (?, ?, ?, ?)",
            [(run_id,) + tuple(entry) for entry in entries],
        )
        self._conn.commit()

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def runs(self, experiment=None, limit=None):
        """Recorded runs, newest first, as plain dicts."""
        query = "SELECT * FROM runs"
        params = []
        if experiment is not None:
            query += " WHERE experiment = ?"
            params.append(experiment)
        query += " ORDER BY id DESC"
        if limit is not None:
            query += " LIMIT ?"
            params.append(int(limit))
        return [dict(row) for row in self._conn.execute(query, params)]

    def resolve(self, ref, experiment=None):
        """A run row from a ref: a numeric id, a run_key (prefix), or
        ``"last"`` (newest, optionally within ``experiment``).  An
        all-digit ref is an id when a run has that id, else a key prefix.

        Raises :class:`KeyError` when nothing (or more than one run key)
        matches.
        """
        ref = str(ref).strip()
        if ref == "last":
            rows = self.runs(experiment=experiment, limit=1)
            if not rows:
                raise KeyError("experiment DB %s has no recorded runs" % self.path)
            return rows[0]
        if ref.isdigit():
            row = self._conn.execute(
                "SELECT * FROM runs WHERE id = ?", (int(ref),)
            ).fetchone()
            if row is not None:
                return dict(row)
        # a case-blind prefix comparison: LIKE would read % and _ as
        # wildcards
        rows = self._conn.execute(
            "SELECT * FROM runs WHERE lower(substr(run_key, 1, ?)) = lower(?)"
            " ORDER BY id DESC",
            (len(ref), ref),
        ).fetchall()
        if not rows:
            raise KeyError("no run with key %r in %s" % (ref, self.path))
        distinct = {row["run_key"] for row in rows}
        if len(distinct) > 1:
            raise KeyError(
                "run key prefix %r is ambiguous (%d keys match)"
                % (ref, len(distinct))
            )
        return dict(rows[0])

    def run_metrics(self, run_id):
        """``{(kind, name): value}`` for one run."""
        return {
            (row["kind"], row["name"]): row["value"]
            for row in self._conn.execute(
                "SELECT kind, name, value FROM metrics WHERE run_id = ?",
                (run_id,),
            )
        }

    def run_failures(self, run_id):
        return {
            row["category"]: row["count"]
            for row in self._conn.execute(
                "SELECT category, count FROM failures WHERE run_id = ?",
                (run_id,),
            )
        }

    def run_specs(self, run_id):
        """The run's per-job fingerprints in spec order."""
        return [
            {"idx": row["idx"], "fingerprint": row["fingerprint"],
             "key": row["key"]}
            for row in self._conn.execute(
                "SELECT idx, fingerprint, key FROM specs WHERE run_id = ?"
                " ORDER BY idx", (run_id,),
            )
        ]

    def run_artifacts(self, run_id):
        return [
            {"path": row["path"], "sha256": row["sha256"],
             "bytes": row["bytes"]}
            for row in self._conn.execute(
                "SELECT path, sha256, bytes FROM artifacts WHERE run_id = ?"
                " ORDER BY path", (run_id,),
            )
        ]

    def experiments(self):
        """Distinct experiment names with run counts, sorted by name."""
        return [
            (row["experiment"], row["n"])
            for row in self._conn.execute(
                "SELECT experiment, COUNT(*) AS n FROM runs"
                " GROUP BY experiment ORDER BY experiment"
            )
        ]

    # ------------------------------------------------------------------
    # Integrity
    # ------------------------------------------------------------------
    def verify_artifacts(self, run_id, root=None):
        """Re-hash the run's artifacts; returns the list of problems.

        Each problem is ``{"path", "expected", "actual"}`` where
        ``actual`` is ``None`` for a missing file.  An empty list means
        every artifact on disk still matches what the run recorded.
        ``root`` resolves relative artifact paths (default: CWD).
        """
        from repro.expdb.recorder import hash_file

        problems = []
        for artifact in self.run_artifacts(run_id):
            path = artifact["path"]
            if root is not None and not os.path.isabs(path):
                path = os.path.join(root, path)
            try:
                actual, _size = hash_file(path)
            except OSError:
                actual = None
            if actual != artifact["sha256"]:
                problems.append({
                    "path": artifact["path"],
                    "expected": artifact["sha256"],
                    "actual": actual,
                })
        return problems

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self):
        self._conn.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
