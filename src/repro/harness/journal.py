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
before the supervisor moves on.  :meth:`SweepJournal.load` tolerates a
truncated or garbled final line (the job it described simply re-runs),
and the first append of a resumed sweep ends an unterminated final line
before it writes, so the torn tail cannot swallow the next record.  A
journal can therefore never poison a resume — the worst a crash can do
is lose the one job that was mid-append.

A file whose first line is not this build's header — not a journal, or
one of another version — raises :class:`JournalError` before anything is
written to it.  An unterminated first line that is a prefix of the
header is a header torn mid-write: a fresh journal.

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

#: the first line of every journal, as written
HEADER_LINE = json.dumps({"kind": "header", "version": JOURNAL_VERSION},
                         sort_keys=True) + "\n"


class JournalError(ValueError):
    """The file at a journal path is not a journal this build resumes:
    no header line, or another version.  Nothing was written to it."""


def _has_header(path, first):
    """Whether ``first``, the first line of the file at ``path``, is this
    build's header; ``False`` for a fresh journal (an empty file, or a
    header torn mid-write).  Anything else raises :class:`JournalError`."""
    if not first.endswith("\n") and HEADER_LINE.startswith(first):
        return False
    try:
        record = json.loads(first)
    except ValueError:
        record = None
    if not isinstance(record, dict) or record.get("kind") != "header":
        raise JournalError("%s is not a sweep journal (its first line is "
                           "no journal header)" % path)
    version = record.get("version")
    if version != JOURNAL_VERSION:
        raise JournalError("journal %s has version %r; this build reads %d"
                           % (path, version, JOURNAL_VERSION))
    return True


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
        any record whose payload fails to unpickle; those jobs re-run.  A
        file that is not a journal of this version raises
        :class:`JournalError`.
        """
        completed = {}
        self.skipped_lines = 0
        if not os.path.exists(self.path):
            return completed
        with open(self.path, "r", errors="replace") as handle:
            if not _has_header(self.path, handle.readline()):
                return completed
            for line in handle:
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                    if record["kind"] != "job":
                        raise ValueError("not a job record")
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
            with open(self.path, "a+b") as handle:
                handle.seek(0)
                first = handle.readline().decode("utf-8", "replace")
                if not _has_header(self.path, first):
                    handle.truncate(0)
                    handle.write(HEADER_LINE.encode("ascii"))
                else:
                    handle.seek(-1, os.SEEK_END)
                    if handle.read(1) != b"\n":
                        handle.write(b"\n")  # ends a killed run's torn line
                handle.flush()
                os.fsync(handle.fileno())
            self._handle = open(self.path, "a")
        return self._handle

    def record(self, fingerprint, key, result):
        """Durably append one completed job before the sweep moves on."""
        handle = self._open_for_append()
        handle.write(json.dumps({
            "kind": "job",
            "fingerprint": fingerprint,
            "key": repr(key),
            "payload": base64.b64encode(pickle.dumps(result)).decode("ascii"),
        }, sort_keys=True) + "\n")
        handle.flush()
        os.fsync(handle.fileno())

    def close(self):
        if self._handle is not None:
            self._handle.close()
            self._handle = None
