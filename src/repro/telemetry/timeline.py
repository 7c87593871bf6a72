"""Chrome-trace timeline over *simulated* cycles.

:class:`TimelineRecorder` produces a Chrome Trace Event Format file
(viewable in ``chrome://tracing`` or https://ui.perfetto.dev) whose time
axis is simulated device cycles — one microsecond in the viewer corresponds
to one cycle.  Two families of tracks are emitted per kernel launch (one
trace *process* per launch, so back-to-back launches do not overlap even
though each restarts its clocks):

* **SM issue tracks** (one per streaming multiprocessor, in SM-throughput
  time ``sm.cycles``): a slice per issued warp turn, named after the warp.
* **thread tracks** (one per simulated thread, in per-lane latency time
  ``cycles_total``): slices for the Figure 5 execution phases, an outer
  ``tx`` slice per transaction attempt carrying its outcome (and abort
  reason / commit version) as args, and instant events for fences and lock
  acquisitions.

The recorder mirrors the :class:`~repro.gpu.thread.ThreadCtx` accounting
exactly — including the reclassification of an aborted attempt's cycles to
the ``aborted`` phase — so the Figure 5 phase breakdown is re-derivable
from the trace alone (:meth:`TimelineRecorder.phase_cycles`), a cross-check
against ``KernelResult.phases``.

Storage.  No event is kept as a dict.  Each thread track and the
recorder's own log (launches, thread-track names, SM turns) hold
fixed-width integer records in one ``array('q')``: a record is a kind tag
followed by its fields, and every string (phase and instant names,
argument keys and string values, abort reasons, outcomes, kernel names)
is interned once per recorder and stored as its index.  The abort
collapse and :meth:`~TimelineRecorder.phase_cycles` work on the records
directly; a record costs 40 or 48 bytes, where a dict event took 300 to
430.  Dicts exist only while the trace is read:
:meth:`~TimelineRecorder.events` rebuilds them, in recording order and
with the same key order, and :meth:`~TimelineRecorder.write` streams them
to disk, a batch of events per call of the C JSON encoder, byte-identical
to ``json.dump(recorder.to_chrome_trace(), handle)`` plus a newline (which
would build every dict at once and run CPython's pure-Python encoder).
Timestamps, durations, versions and integer arguments must be ints that
fit in 64 bits, which every simulated count does.
"""

import json
from array import array
from itertools import islice

from repro.gpu.events import Phase

#: thread tracks live far above SM tids so the two families never collide
THREAD_TRACK_OFFSET = 1 << 20

# Thread-track records, five ints each: (kind, a, b, c, d).
_PHASE = 0           # a=phase, b=ts, c=dur
_INSTANT = 1         # a=name, b=ts
_INSTANT_INT = 2     # a=name, b=ts, c=key, d=int value
_INSTANT_STR = 3     # a=name, b=ts, c=key, d=str value
_TX_COMMIT = 4       # a=outcome, b=ts, c=dur
_TX_VERSION = 5      # a=outcome, b=ts, c=dur, d=version
_TX_ABORT = 6        # a=reason, b=ts, c=dur
_TRACK_WIDTH = 5

# Recorder-log records, six ints each: (kind, a, b, c, d, e).  The pid of
# every log event is the launch open when it was recorded, so it is not
# stored: each _LAUNCH record opens the next one.
_LAUNCH = 0          # a=kernel name, b=number of SMs
_THREAD = 1          # a=simulated thread id
_TURN = 2            # a=SM, b=warp, c=ts, d=dur, e=steps
_LOG_WIDTH = 6

_encode = json.JSONEncoder().encode
#: events encoded per ``json`` call by :meth:`TimelineRecorder.write`: one
#: call per event spends more on building the C encoder than on encoding
_WRITE_BATCH = 256


class _Strings:
    """One recorder's intern table: each distinct string (or ``None``, a
    missing abort reason) gets an index, in first-seen order."""

    __slots__ = ("ids", "values")

    def __init__(self):
        self.ids = {}
        self.values = []

    def id_of(self, value):
        index = self.ids.get(value)
        if index is None:
            index = self.ids[value] = len(self.values)
            self.values.append(value)
        return index


class _ThreadTrack:
    """Per-thread record buffer with phase-slice coalescing.

    Adjacent charges to the same phase at contiguous timestamps — the
    dominant pattern, since kernels run long homogeneous stretches — are
    merged into one slice, keeping traces small.  Transaction attempts are
    bracketed by :meth:`tx_begin` / :meth:`tx_end`; on abort, the attempt's
    phase slices are collapsed into a single ``aborted`` slice, mirroring
    ``ThreadCtx.tx_window_abort``.
    """

    __slots__ = ("pid", "tid", "_records", "_strings", "_phase", "_start",
                 "_dur", "_mark", "_attempt_start")

    def __init__(self, pid, tid, strings):
        self.pid = pid
        self.tid = tid
        self._records = array("q")
        self._strings = strings
        self._phase = None
        self._start = 0
        self._dur = 0
        self._mark = None
        self._attempt_start = None

    def charge(self, phase, start, cycles):
        """Record ``cycles`` of ``phase`` beginning at timestamp ``start``."""
        if not cycles:
            return
        if phase == self._phase and start == self._start + self._dur:
            self._dur += cycles
            return
        self._flush()
        self._phase = phase
        self._start = start
        self._dur = cycles

    def _flush(self):
        if self._phase is not None:
            self._records.extend((_PHASE, self._strings.id_of(self._phase),
                                  self._start, self._dur, 0))
            self._phase = None

    def instant(self, name, ts, args=None):
        """A point event; ``args`` is ``None`` or one ``{key: int|str}``."""
        strings = self._strings
        if not args:
            record = (_INSTANT, strings.id_of(name), ts, 0, 0)
        else:
            if len(args) != 1:
                raise ValueError("a timeline instant takes at most one "
                                 "argument, got %r" % (args,))
            ((key, value),) = args.items()
            if type(value) is int:
                record = (_INSTANT_INT, strings.id_of(name), ts,
                          strings.id_of(key), value)
            elif isinstance(value, str):
                record = (_INSTANT_STR, strings.id_of(name), ts,
                          strings.id_of(key), strings.id_of(value))
            else:
                raise TypeError("a timeline instant argument is an int or a "
                                "str, got %r" % (value,))
        self._records.extend(record)

    def tx_begin(self, ts):
        self._flush()
        self._attempt_start = ts
        self._mark = len(self._records)

    def tx_end(self, ts, outcome, reason=None, version=None):
        self._flush()
        start = self._attempt_start
        if start is None:  # unmatched end: nothing to bracket
            return
        records = self._records
        strings = self._strings
        if outcome == "abort":
            # Collapse the attempt's phase slices into one `aborted` slice,
            # exactly as ThreadCtx.tx_window_abort reclassifies the window's
            # charges; instants survive with their original timestamps.
            window = records[self._mark:]
            del records[self._mark:]
            kept = array("q")
            aborted = 0
            fields = iter(window)
            for record in zip(*[fields] * _TRACK_WIDTH):
                if record[0] == _PHASE:
                    aborted += record[3]
                else:
                    kept.extend(record)
            records.extend((_TX_ABORT, strings.id_of(reason), start,
                            ts - start, 0))
            if aborted:
                records.extend((_PHASE, strings.id_of(Phase.ABORTED), start,
                                aborted, 0))
            records.extend(kept)
        elif version is None:
            records.extend((_TX_COMMIT, strings.id_of(outcome), start,
                            ts - start, 0))
        else:
            records.extend((_TX_VERSION, strings.id_of(outcome), start,
                            ts - start, version))
        self._attempt_start = None
        self._mark = None

    def finish(self):
        self._flush()

    def add_phase_cycles(self, totals):
        """Add this track's cycles per interned phase index into ``totals``."""
        fields = iter(self._records)
        for kind, phase, _ts, dur, _ in zip(*[fields] * _TRACK_WIDTH):
            if kind == _PHASE:
                totals[phase] = totals.get(phase, 0) + dur

    def iter_events(self, names):
        """This track's events as Chrome-trace dicts, in recording order."""
        pid = self.pid
        tid = self.tid
        fields = iter(self._records)
        for kind, a, b, c, d in zip(*[fields] * _TRACK_WIDTH):
            if kind == _PHASE:
                yield {"ph": "X", "cat": "phase", "pid": pid, "tid": tid,
                       "name": names[a], "ts": b, "dur": c}
            elif kind <= _INSTANT_STR:
                event = {"ph": "i", "s": "t", "cat": "instant", "pid": pid,
                         "tid": tid, "name": names[a], "ts": b}
                if kind == _INSTANT_INT:
                    event["args"] = {names[c]: d}
                elif kind == _INSTANT_STR:
                    event["args"] = {names[c]: names[d]}
                yield event
            elif kind == _TX_ABORT:
                yield {"ph": "X", "cat": "tx", "pid": pid, "tid": tid,
                       "name": "tx", "ts": b, "dur": c,
                       "args": {"outcome": "abort", "reason": names[a]},
                       "cname": "terrible"}
            else:
                args = {"outcome": names[a]}
                if kind == _TX_VERSION:
                    args["version"] = d
                yield {"ph": "X", "cat": "tx", "pid": pid, "tid": tid,
                       "name": "tx", "ts": b, "dur": c, "args": args,
                       "cname": "good"}


class TimelineRecorder:
    """Collects trace events across kernel launches; see the module doc."""

    __slots__ = ("meta", "_log", "_strings", "_tracks", "_launch_tracks",
                 "_launch")

    def __init__(self, meta=None):
        self.meta = dict(meta or {})
        self._log = array("q")
        self._strings = _Strings()
        self._tracks = {}
        self._launch_tracks = []
        self._launch = -1

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def begin_launch(self, kernel_name, num_sms):
        """Open a new trace process for one kernel launch; returns its pid."""
        for track in self._launch_tracks:
            track.finish()
        self._launch_tracks = []
        self._launch += 1
        pid = self._launch
        self._log.extend((_LAUNCH, self._strings.id_of(kernel_name), num_sms,
                          0, 0, 0))
        return pid

    def sm_turn(self, sm_index, warp_id, start, cycles, steps):
        """One issued warp turn on an SM track (SM-throughput time)."""
        self._log.extend((_TURN, sm_index, warp_id, start, cycles, steps))

    def track(self, tid):
        """The thread track for ``tid`` in the current launch."""
        key = (self._launch, tid)
        track = self._tracks.get(key)
        if track is None:
            track = _ThreadTrack(self._launch, THREAD_TRACK_OFFSET + tid,
                                 self._strings)
            self._tracks[key] = track
            self._launch_tracks.append(track)
            self._log.extend((_THREAD, tid, 0, 0, 0, 0))
        return track

    def finish(self):
        """Flush every open slice; recording can still continue after."""
        for track in self._tracks.values():
            track.finish()

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def _iter_events(self):
        """Every event as a Chrome-trace dict: the log (launch and thread
        names, SM turns), then each thread track in (launch, tid) order."""
        self.finish()
        names = self._strings.values
        pid = -1
        fields = iter(self._log)
        for kind, a, b, c, d, e in zip(*[fields] * _LOG_WIDTH):
            if kind == _TURN:
                yield {"ph": "X", "cat": "sm", "pid": pid, "tid": a,
                       "name": "warp %d" % b, "ts": c, "dur": d,
                       "args": {"steps": e}}
            elif kind == _THREAD:
                yield {"ph": "M", "name": "thread_name", "pid": pid,
                       "tid": THREAD_TRACK_OFFSET + a,
                       "args": {"name": "thread %d" % a}}
            else:
                pid += 1
                yield {"ph": "M", "name": "process_name", "pid": pid,
                       "tid": 0,
                       "args": {"name": "launch %d: %s" % (pid, names[a])}}
                for sm in range(b):
                    yield {"ph": "M", "name": "thread_name", "pid": pid,
                           "tid": sm, "args": {"name": "SM %d issue" % sm}}
        for key in sorted(self._tracks):
            yield from self._tracks[key].iter_events(names)

    def events(self):
        """All events recorded so far (open slices flushed first)."""
        return list(self._iter_events())

    def _other_data(self):
        other = {"time_unit": "simulated cycles (1us in the viewer = 1 cycle)"}
        other.update(self.meta)
        return other

    def to_chrome_trace(self):
        """The trace as a Chrome Trace Event Format object."""
        return {
            "traceEvents": self.events(),
            "displayTimeUnit": "ms",
            "otherData": self._other_data(),
        }

    def write(self, path):
        """Write the Chrome-trace JSON to ``path``; returns the path.

        Streams the events a batch at a time through the C encoder, so
        the dicts of the whole trace never exist at once; the bytes equal
        ``json.dump(self.to_chrome_trace(), handle)`` plus a newline.  Atomic (temp file + ``os.replace``): a
        worker killed mid-dump never leaves a truncated trace in the
        timeline directory.
        """
        from repro.common.fsio import atomic_open

        events = self._iter_events()
        with atomic_open(path) as handle:
            write = handle.write
            write('{"traceEvents": [')
            separator = ""
            while True:
                batch = list(islice(events, _WRITE_BATCH))
                if not batch:
                    break
                write(separator)
                write(_encode(batch)[1:-1])  # "[a, b]" -> "a, b"
                separator = ", "
            write('], "displayTimeUnit": "ms", "otherData": ')
            write(_encode(self._other_data()))
            write("}\n")
        return path

    # ------------------------------------------------------------------
    # Re-derivation of the Figure 5 breakdown
    # ------------------------------------------------------------------
    def phase_cycles(self, launch=None):
        """Cycles per Figure 5 phase, summed from the trace's phase slices.

        ``launch`` restricts the sum to one kernel launch (trace process);
        the default sums the whole run.  Matches the simulator's own
        ``KernelResult.phases`` accounting exactly.
        """
        self.finish()
        totals = {}
        for key in sorted(self._tracks):
            if launch is None or key[0] == launch:
                self._tracks[key].add_phase_cycles(totals)
        names = self._strings.values
        return {names[phase]: cycles for phase, cycles in totals.items()}

    def phase_fractions(self, launch=None):
        """``{phase: fraction}`` re-derived from the trace (cf. Figure 5)."""
        totals = self.phase_cycles(launch)
        total = sum(totals.values())
        if not total:
            return {}
        return {phase: value / total for phase, value in totals.items()}
