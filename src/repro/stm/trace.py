"""Transaction observers: the runtime's one event slot, and the tracer.

Every :class:`~repro.stm.runtime.base.TmRuntime` has one observer slot,
``runtime.tracer``: ``None``, one observer, or a tuple of observers
(:meth:`~repro.stm.runtime.base.TmRuntime.observe` appends one).  An
observer implements any subset of four seams:

* ``on_commit(tx, version)`` — a transaction committed;
* ``on_abort(tx, reason)`` — an attempt aborted;
* ``on_tx_read(tx, addr)`` — a real global read served a ``tx_read``;
* ``filter_validation(tx, stage, verdict)`` — a failing validation
  verdict, which the observer may flip.

:func:`observer_seams` resolves the seams once, when the slot is set:
each is ``None`` when no observer implements it, the one implementer's
bound method, or one fan-out over every implementer in slot order
(``filter_validation`` chains, each observer seeing the previous
verdict).  The telemetry session, the online sanitizer and a byzantine
injector are observers; so is :class:`TxTracer`, which records every
commit and abort with its thread, outcome, reason and footprint sizes.
The tracer answers the questions a developer asks when a transactional
kernel misbehaves: *who aborts, why, how often, and how big are the
transactions that lose?*

Usage::

    runtime = make_runtime("hv-sorting", device, config)
    tracer = TxTracer()
    runtime.tracer = tracer
    device.launch(kernel, grid, block, attach=runtime.attach)
    print(tracer.summary())
    tracer.to_csv("trace.csv")
"""

#: the seams a transaction observer may implement, in slot-resolution order
OBSERVER_SEAMS = ("on_commit", "on_abort", "on_tx_read", "filter_validation")


def observer_seams(observer):
    """The slot's seams as a tuple in :data:`OBSERVER_SEAMS` order: each
    ``None``, one bound method, or a fan-out over the implementers."""
    if observer is None:
        observers = ()
    elif isinstance(observer, tuple):
        observers = observer
    else:
        observers = (observer,)
    seams = []
    for name in OBSERVER_SEAMS:
        methods = [getattr(o, name) for o in observers
                   if getattr(o, name, None) is not None]
        if len(methods) < 2:
            seams.append(methods[0] if methods else None)
        elif name == "filter_validation":
            seams.append(_chain(methods))
        else:
            seams.append(_fan_out(methods))
    return tuple(seams)


def _fan_out(methods):
    def fan_out(*args):
        for method in methods:
            method(*args)

    return fan_out


def _chain(methods):
    def chain(tx, stage, verdict):
        for method in methods:
            verdict = method(tx, stage, verdict)
        return verdict

    return chain


class TxEvent:
    """One commit or abort event."""

    __slots__ = ("sequence", "tid", "outcome", "reason", "reads", "writes", "version")

    def __init__(self, sequence, tid, outcome, reason, reads, writes, version):
        self.sequence = sequence
        self.tid = tid
        self.outcome = outcome  # "commit" | "abort"
        self.reason = reason    # abort reason or None
        self.reads = reads
        self.writes = writes
        self.version = version

    def as_row(self):
        return (
            self.sequence,
            self.tid,
            self.outcome,
            self.reason or "",
            self.reads,
            self.writes,
            "" if self.version is None else self.version,
        )

    def __repr__(self):
        return "TxEvent(#%d tid=%d %s%s r=%d w=%d)" % (
            self.sequence,
            self.tid,
            self.outcome,
            "" if not self.reason else ":" + self.reason,
            self.reads,
            self.writes,
        )


class TxTracer:
    """Collects :class:`TxEvent` records from a runtime."""

    CSV_HEADER = "sequence,tid,outcome,reason,reads,writes,version"

    def __init__(self, capacity=None):
        self.events = []
        self.capacity = capacity
        self._sequence = 0
        self.dropped = 0

    # ------------------------------------------------------------------
    # Runtime-facing hooks
    # ------------------------------------------------------------------
    def on_commit(self, tx, version):
        self._record(tx, "commit", None, version)

    def on_abort(self, tx, reason):
        self._record(tx, "abort", reason, None)

    def _record(self, tx, outcome, reason, version):
        self._sequence += 1
        if self.capacity is not None and len(self.events) >= self.capacity:
            self.dropped += 1
            return
        self.events.append(
            TxEvent(
                self._sequence,
                tx.tc.tid,
                outcome,
                reason,
                len(list(tx.read_entries())),
                len(tx.write_entries()),
                version,
            )
        )

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def commits(self):
        return [e for e in self.events if e.outcome == "commit"]

    def aborts(self, reason=None):
        return [
            e
            for e in self.events
            if e.outcome == "abort" and (reason is None or e.reason == reason)
        ]

    def abort_reasons(self):
        """Histogram of abort reasons."""
        histogram = {}
        for event in self.aborts():
            histogram[event.reason] = histogram.get(event.reason, 0) + 1
        return histogram

    def hottest_threads(self, top=5):
        """Threads ranked by abort count (the conflict hotspots)."""
        per_thread = {}
        for event in self.aborts():
            per_thread[event.tid] = per_thread.get(event.tid, 0) + 1
        ranked = sorted(per_thread.items(), key=lambda item: -item[1])
        return ranked[:top]

    def summary(self):
        """Human-readable one-screen digest."""
        commits = self.commits()
        aborts = self.aborts()
        lines = [
            "tx trace: %d commits, %d aborts (%d events%s)"
            % (
                len(commits),
                len(aborts),
                len(self.events),
                ", %d dropped" % self.dropped if self.dropped else "",
            )
        ]
        for reason, count in sorted(self.abort_reasons().items()):
            lines.append("  abort[%s]: %d" % (reason, count))
        for tid, count in self.hottest_threads():
            lines.append("  hot thread %d: %d aborts" % (tid, count))
        return "\n".join(lines)

    def to_csv(self, path):
        """Dump all events to a CSV file; returns the row count.

        The header row is always written, so an empty trace still yields a
        parseable file.  Rows go through the :mod:`csv` module, which
        quotes any field containing a delimiter — abort reasons are free
        text and may grow commas.  ``reason`` and ``version`` are blank
        for the outcomes that have none (commits have no reason, aborts
        no version).
        """
        import csv

        from repro.common.fsio import atomic_open

        with atomic_open(path, newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(self.CSV_HEADER.split(","))
            for event in self.events:
                writer.writerow(event.as_row())
        return len(self.events)
