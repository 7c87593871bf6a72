"""In-memory span recording for the traced pass.

A span is (id, parent id, name, start, end, args); spans of one pass share
the pass id.  They stay in a list until the benchmark ends and are then
written once, as Chrome-trace JSON that Perfetto opens directly.  A layer's
*self time* is its span's duration minus what its child spans cover.

The untraced passes use :class:`NullTracer`, whose ``span`` is a shared
no-op context manager: end-to-end metrics are measured with tracing off.
"""

import contextlib
import json
import time


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "args")

    def __init__(self, id, parent, name, start, args):
        self.id = id
        self.parent = parent
        self.name = name
        self.start = start
        self.end = None
        self.args = args

    def as_dict(self):
        return {
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "args": self.args,
        }


class Tracer:
    """Records nested spans on the ``time.perf_counter`` clock."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def open(self, name, start=None, **args):
        """Open a span (``start`` backdates it, for the root span that
        begins when the parent process spawned this one)."""
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name,
                    time.perf_counter() if start is None else start, args)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span):
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(
                "span %r closed while %r is open" % (span.name, popped.name)
            )

    @contextlib.contextmanager
    def span(self, name, **args):
        span = self.open(name, **args)
        try:
            yield span
        finally:
            self.close(span)


class _NullSpan:
    """Accepts and drops the counts a traced pass would attach."""

    __slots__ = ()
    args = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False


class NullTracer:
    """Tracing off: ``span`` hands back one shared do-nothing object."""

    spans = ()
    _null = _NullSpan()

    def open(self, name, start=None, **args):
        return self._null

    def close(self, span):
        pass

    def span(self, name, **args):
        return self._null


def self_times(spans):
    """``{span id: self seconds}`` for a list of span dicts: duration minus
    the union of the intervals its direct children cover."""
    children = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    out = {}
    for span in spans:
        covered = 0.0
        cursor = span["start"]
        for child in sorted(children.get(span["id"], ()), key=lambda s: s["start"]):
            start = max(child["start"], cursor)
            if child["end"] > start:
                covered += child["end"] - start
                cursor = child["end"]
        out[span["id"]] = (span["end"] - span["start"]) - covered
    return out


def total_by_name(spans, name):
    """Summed duration of every span called ``name``."""
    return sum(s["end"] - s["start"] for s in spans if s["name"] == name)


def write_chrome_trace(path, passes):
    """Write ``passes`` — ``[(workload, pass id, [span dict, ...]), ...]`` —
    as one Chrome-trace file: one process row per pass, complete ("X")
    events in microseconds from the earliest span."""
    origin = min(
        (s["start"] for _w, _p, spans in passes for s in spans), default=0.0
    )
    events = []
    for workload, pass_id, spans in passes:
        events.append({
            "name": "process_name", "ph": "M", "pid": pass_id, "tid": 0,
            "args": {"name": "%s pass %d" % (workload, pass_id)},
        })
        selfs = self_times(spans)
        for span in spans:
            args = dict(span["args"] or {})
            args.update(
                id=span["id"], parent=span["parent"], workload=workload,
                pass_id=pass_id, self_us=round(selfs[span["id"]] * 1e6, 1),
            )
            events.append({
                "name": span["name"], "ph": "X", "pid": pass_id, "tid": 0,
                "ts": round((span["start"] - origin) * 1e6, 1),
                "dur": round((span["end"] - span["start"]) * 1e6, 1),
                "args": args,
            })
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
        handle.write("\n")
