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


def validate_chrome_trace(data):
    """Validate a Chrome Trace Event Format object; returns the event count.

    Checks the invariants ``chrome://tracing`` / Perfetto rely on: a
    ``traceEvents`` list of objects, each with a string ``ph``; complete
    events (``X``) carry numeric non-negative ``ts``/``dur`` plus
    ``pid``/``tid``/``name``; instants (``i``) carry ``ts``; metadata
    events (``M``) carry a known ``name`` and an ``args.name``.
    """
    if not isinstance(data, dict):
        _fail("trace root must be an object, got %s", type(data).__name__)
    events = data.get("traceEvents")
    if not isinstance(events, list):
        _fail("traceEvents must be a list")
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            _fail("event %d is not an object", index)
        ph = event.get("ph")
        if not isinstance(ph, str) or not ph:
            _fail("event %d has no phase type 'ph'", index)
        if ph == "X":
            for field in ("ts", "dur"):
                value = event.get(field)
                if not isinstance(value, _NUMBER) or value < 0:
                    _fail("event %d: %r must be a non-negative number, got %r",
                          index, field, value)
            for field in ("pid", "tid"):
                if not isinstance(event.get(field), int):
                    _fail("event %d: %r must be an integer", index, field)
            if not isinstance(event.get("name"), str):
                _fail("event %d: complete events need a string name", index)
        elif ph == "i":
            if not isinstance(event.get("ts"), _NUMBER):
                _fail("event %d: instants need a numeric ts", index)
            if not isinstance(event.get("name"), str):
                _fail("event %d: instants need a string name", index)
        elif ph == "M":
            if event.get("name") not in ("process_name", "thread_name",
                                         "process_labels", "process_sort_index",
                                         "thread_sort_index"):
                _fail("event %d: unknown metadata event %r", index, event.get("name"))
            args = event.get("args")
            if not isinstance(args, dict) or "name" not in args:
                _fail("event %d: metadata events need args.name", index)
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
    """Validate one artifact, dispatching on its shape; returns a summary."""
    with open(path) as handle:
        data = json.load(handle)
    if isinstance(data, dict) and "traceEvents" in data:
        count = validate_chrome_trace(data)
        return "%s: valid Chrome trace (%d events)" % (path, count)
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
