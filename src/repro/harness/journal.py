"""Sweep journal: checkpoint completed jobs so interrupted sweeps resume.

A sweep of hundreds of independent runs can die hours in — OOM killer,
pre-empted CI runner, an operator's ^C — and without a checkpoint every
completed job is lost with it.  The journal is the supervision layer's
durable record: one line per finished :class:`~repro.harness.parallel.
Cell`, written *as each job completes*, so a sweep resumed against the
same journal re-runs only the jobs that never finished and merges to
output bit-identical to an uninterrupted run.

Format
======
Append-only JSON Lines.  The first line is a header::

    {"kind": "header", "version": 1}

and every completed job appends::

    {"kind": "job", "fingerprint": "<sha256>", "key": "<repr>",
     "payload": "<base64 pickle of the result object>"}

The payload is pickled (not JSON) because results carry rich objects —
``RunResult`` with kernel results and stats, per-worker metric
registries — whose round-trip must be exact for the resumed sweep to be
bit-identical.  The ``key`` repr rides along purely for human inspection
of the journal.

Crash consistency comes from the append-only discipline rather than from
temp-file swaps: each record is a single line, flushed and ``fsync``\\ ed
before the supervisor moves on, and :meth:`SweepJournal.load` tolerates a
truncated or garbled final line (the job it described simply re-runs).
A journal can therefore never poison a resume — the worst a crash can do
is lose the one job that was mid-append.

Fingerprints
============
:func:`spec_fingerprint` hashes the spec's complete picklable state
(canonical JSON, sorted keys), so a journal entry is only reused when
*every* field of the spec — workload, params, variant, overrides, fault
plan, telemetry settings — is identical.  Changing the sweep invalidates
exactly the entries whose specs changed.
"""

import base64
import hashlib
import json
import os
import pickle

JOURNAL_VERSION = 1


def _spec_state(spec):
    """The spec's plain-data state, however the spec class spells it."""
    getstate = getattr(spec, "__getstate__", None)
    if getstate is not None:
        return getstate()
    slots = getattr(type(spec), "__slots__", None)
    if slots is not None:
        return {slot: getattr(spec, slot) for slot in slots}
    return dict(vars(spec))


def spec_fingerprint(spec):
    """Deterministic content hash of a job spec (hex sha256).

    Works for any spec object exposing ``__getstate__`` or ``__slots__``
    — every sweep kind's :class:`~repro.harness.parallel.Cell`, whose
    state is exactly its declared fields.  Values that are not JSON types
    fall back to ``repr``, which is stable for the plain-data specs the
    harness uses.
    """
    state = _spec_state(spec)
    canonical = json.dumps(state, sort_keys=True, default=repr)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class SweepJournal:
    """Append-only checkpoint file mapping spec fingerprints to results.

    ``load()`` once up front to learn what already completed; ``record()``
    after every finished job.  The journal holds the file open in append
    mode between records; ``close()`` (or use as a context manager) when
    the sweep ends.
    """

    def __init__(self, path):
        self.path = path
        self._handle = None
        #: entries whose lines failed to parse on load (truncated tail of a
        #: killed run, hand-edited files); surfaced so callers can report
        self.skipped_lines = 0

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def load(self):
        """Return ``{fingerprint: result}`` for every readable record.

        Missing file means a fresh sweep (empty dict).  A torn final line
        — the signature of a process killed mid-append — is skipped, as is
        any record whose payload fails to unpickle; those jobs re-run.
        """
        completed = {}
        self.skipped_lines = 0
        if not os.path.exists(self.path):
            return completed
        with open(self.path, "r") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    self.skipped_lines += 1
                    continue
                kind = record.get("kind")
                if kind == "header":
                    version = record.get("version")
                    if version != JOURNAL_VERSION:
                        raise ValueError(
                            "journal %s has version %r; this build reads %d"
                            % (self.path, version, JOURNAL_VERSION)
                        )
                    continue
                if kind != "job":
                    self.skipped_lines += 1
                    continue
                try:
                    payload = base64.b64decode(record["payload"])
                    completed[record["fingerprint"]] = pickle.loads(payload)
                except Exception:  # noqa: BLE001 - any torn record re-runs
                    self.skipped_lines += 1
        return completed

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def _open_for_append(self):
        if self._handle is None:
            directory = os.path.dirname(os.path.abspath(self.path))
            os.makedirs(directory, exist_ok=True)
            fresh = not os.path.exists(self.path)
            self._handle = open(self.path, "a")
            if fresh:
                self._append({"kind": "header", "version": JOURNAL_VERSION})
        return self._handle

    def _append(self, record):
        handle = self._handle
        handle.write(json.dumps(record, sort_keys=True) + "\n")
        handle.flush()
        os.fsync(handle.fileno())

    def record(self, fingerprint, key, result):
        """Durably append one completed job before the sweep moves on."""
        self._open_for_append()
        self._append({
            "kind": "job",
            "fingerprint": fingerprint,
            "key": repr(key),
            "payload": base64.b64encode(pickle.dumps(result)).decode("ascii"),
        })

    def close(self):
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
