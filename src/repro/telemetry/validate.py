"""Schema validation for telemetry artifacts.

``python -m repro.telemetry.validate PATH [PATH ...]`` checks each
artifact: Chrome-trace JSON (objects with a ``traceEvents`` list) is
validated against the Trace Event Format requirements the viewers
actually enforce; metrics JSON (objects with
``counters``/``gauges``/``histograms`` maps) is validated against the
:class:`~repro.telemetry.registry.MetricRegistry` serialization.

A PATH may be a file, a directory (every ``*.json`` under it,
recursively), or a glob pattern — so a whole artifact tree validates in
one invocation.  Validation stops at the **first** invalid file with
exit code 1; exit code 0 means every file validated.  CI's
smokes job runs this over the telemetry artifacts it uploads.
"""

import glob
import json
import os
import sys

from repro.common.cli import run_main

_NUMBER = (int, float)


class ValidationError(ValueError):
    """A telemetry artifact violated its schema."""


def _fail(message, *args):
    raise ValidationError(message % args if args else message)


_METADATA_NAMES = ("process_name", "thread_name", "process_labels",
                   "process_sort_index", "thread_sort_index")


class _Valid:
    """Stands in for a decoded object that passed the event checks, so a
    trace validates without holding its events.  It keeps only whether
    the object had a ``name`` key: a metadata event's ``args`` needs one."""

    __slots__ = ("named",)

    def __init__(self, named):
        self.named = named


_VALID = (_Valid(False), _Valid(True))


def _event_problem(event):
    """What is wrong with one trace event, as the tail of an ``event N``
    message, or None when it is valid."""
    if not isinstance(event, dict):
        return " is not an object"
    ph = event.get("ph")
    if not isinstance(ph, str) or not ph:
        return " has no phase type 'ph'"
    if ph == "X":
        for field in ("ts", "dur"):
            value = event.get(field)
            if not isinstance(value, _NUMBER) or value < 0:
                return ": %r must be a non-negative number, got %r" % (field, value)
        for field in ("pid", "tid"):
            if not isinstance(event.get(field), int):
                return ": %r must be an integer" % field
        if not isinstance(event.get("name"), str):
            return ": complete events need a string name"
    elif ph == "i":
        if not isinstance(event.get("ts"), _NUMBER):
            return ": instants need a numeric ts"
        if not isinstance(event.get("name"), str):
            return ": instants need a string name"
    elif ph == "M":
        if event.get("name") not in _METADATA_NAMES:
            return ": unknown metadata event %r" % (event.get("name"),)
        args = event.get("args")
        if isinstance(args, _Valid):
            named = args.named
        else:
            named = isinstance(args, dict) and "name" in args
        if not named:
            return ": metadata events need args.name"
    return None


def _stand_in(obj):
    """``json.load`` object hook: a decoded object that passes the event
    checks becomes a shared :class:`_Valid`.  Objects are decoded
    innermost first, so an event's ``args`` is replaced before the event
    is checked; a root object (one with ``traceEvents``) is kept."""
    if "ph" in obj and "traceEvents" not in obj and _event_problem(obj) is None:
        return _VALID["name" in obj]
    return obj


def validate_chrome_trace(data):
    """Validate a Chrome Trace Event Format object; returns the event count.

    Checks the invariants ``chrome://tracing`` / Perfetto rely on: a
    ``traceEvents`` list of objects, each with a string ``ph``; complete
    events (``X``) carry numeric non-negative ``ts``/``dur`` plus
    ``pid``/``tid``/``name``; instants (``i``) carry ``ts``; metadata
    events (``M``) carry a known ``name`` and an ``args.name``.  The
    first invalid event is reported with its index.
    """
    if not isinstance(data, dict):
        _fail("trace root must be an object, got %s", type(data).__name__)
    events = data.get("traceEvents")
    if not isinstance(events, list):
        _fail("traceEvents must be a list")
    for index, event in enumerate(events):
        if isinstance(event, _Valid):
            continue
        problem = _event_problem(event)
        if problem is not None:
            _fail("event %d%s", index, problem)
    return len(events)


def validate_metrics(data):
    """Validate a MetricRegistry JSON dump; returns the counter count."""
    if not isinstance(data, dict):
        _fail("metrics root must be an object, got %s", type(data).__name__)
    counters = data.get("counters")
    if not isinstance(counters, dict):
        _fail("metrics must carry a 'counters' object")
    for name, value in counters.items():
        if not isinstance(value, _NUMBER):
            _fail("counter %r has non-numeric value %r", name, value)
    gauges = data.get("gauges", {})
    if not isinstance(gauges, dict):
        _fail("'gauges' must be an object")
    histograms = data.get("histograms", {})
    if not isinstance(histograms, dict):
        _fail("'histograms' must be an object")
    for name, payload in histograms.items():
        if not isinstance(payload, dict) or "count" not in payload:
            _fail("histogram %r must be an object with a 'count'", name)
        if not isinstance(payload.get("buckets", {}), dict):
            _fail("histogram %r buckets must be an object", name)
    return len(counters)


def validate_file(path):
    """Validate one artifact, dispatching on its shape; returns a summary.

    A trace's events are checked as they are decoded (:func:`_stand_in`),
    so only the invalid ones stay in memory; anything else is read again
    plainly and checked as a metrics dump.
    """
    with open(path) as handle:
        data = json.load(handle, object_hook=_stand_in)
    if isinstance(data, dict) and "traceEvents" in data:
        count = validate_chrome_trace(data)
        return "%s: valid Chrome trace (%d events)" % (path, count)
    with open(path) as handle:
        data = json.load(handle)
    count = validate_metrics(data)
    return "%s: valid metrics dump (%d counters)" % (path, count)


def expand_paths(args):
    """Resolve the CLI's PATH arguments to a flat, ordered file list.

    A directory expands to every ``*.json`` under it (recursively,
    sorted); an argument with glob characters expands to its sorted
    matches; anything else passes through as a file path.  Arguments
    that expand to nothing are kept verbatim so the open() failure is
    reported against what the user typed.
    """
    paths = []
    for arg in args:
        if os.path.isdir(arg):
            found = sorted(glob.glob(
                os.path.join(arg, "**", "*.json"), recursive=True
            ))
            paths.extend(found if found else [arg])
        elif any(char in arg for char in "*?["):
            found = sorted(glob.glob(arg, recursive=True))
            paths.extend(found if found else [arg])
        else:
            paths.append(arg)
    return paths


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv:
        print("usage: python -m repro.telemetry.validate PATH [PATH ...]\n"
              "  PATH: a file, a directory (validates every *.json under "
              "it), or a glob", file=sys.stderr)
        return 2
    for path in expand_paths(argv):
        try:
            print(validate_file(path))
        except (OSError, ValueError) as exc:
            # fail fast: the first invalid artifact stops the scan, so CI
            # logs end at the file that broke instead of burying it
            print("%s: INVALID: %s" % (path, exc), file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    run_main(main)
