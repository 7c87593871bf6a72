"""Common interface of every TM runtime and baseline.

A :class:`TmRuntime` owns the global metadata of one STM instance (lock
table, clock, statistics) and hands every simulated thread an instance of
its ``tx_class``, a :class:`TxThread` subclass, via
:meth:`TmRuntime.attach` (passed as the ``attach`` callback of
:meth:`repro.gpu.Device.launch`, which installs it as ``tc.stm``).

A :class:`TxThread` exposes the paper's programming interface as generator
methods driven with ``yield from``:

* ``tx_begin()``
* ``value = yield from tx_read(addr)``
* ``yield from tx_write(addr, value)``
* ``committed = yield from tx_commit()``
* ``yield from tx_abort()`` — explicit abort after an opacity violation
  (the Figure 1 ``isOpaque`` pattern)

``is_opaque`` mirrors the paper's per-transaction opacity flag: a read that
fails post-validation clears it, and the program must break out of the
transaction body and abort (GPU SIMT stacks are not software-manageable, so
GPU-STM cannot longjmp out of a transaction the way CPU STMs do).

When ``record_history`` is enabled the runtime logs every committed
transaction's read/write sets and commit timestamp, which the strict
serializability oracle (:mod:`repro.stm.oracle`) replays in tests.
"""

from repro.common.stats import Counters
from repro.stm.trace import observer_seams


class CommitRecord:
    """History entry of one committed transaction (oracle input)."""

    __slots__ = ("tid", "version", "reads", "writes")

    def __init__(self, tid, version, reads, writes):
        self.tid = tid
        self.version = version
        self.reads = reads
        self.writes = writes


class TmRuntime:
    """Base class of all TM runtimes.

    A runtime outlives its launches and keeps only what they report:
    ``stats``, ``history`` and, for lock-sorting runtimes, the lock logs'
    comparison total (``locklog_tally``).  It holds no per-thread state:
    ``threads`` counts the contexts :meth:`attach` has served, and each
    :class:`TxThread` is reachable only through its context's ``tc.stm``,
    which ``Device.launch`` clears when the launch ends, so a finished
    launch's threads are freed at once however many launches one runtime
    serves.
    """

    #: registry name; subclasses override
    name = "abstract"
    #: the :class:`TxThread` subclass :meth:`attach` gives every thread;
    #: each runtime class names its own, and a seeded protocol bug
    #: (:mod:`repro.faults.mutants`) overrides it on one runtime instance
    tx_class = None
    #: True when transactions of this runtime execute per thread (the paper's
    #: distinguishing feature vs. EGPGV's per-thread-block transactions)
    per_thread_transactions = True
    #: the :class:`~repro.stm.locklog.ComparisonTally` its threads' lock
    #: logs count into; None when its threads keep no lock log
    locklog_tally = None

    def __init__(self, device, record_history=False):
        self.device = device
        self.mem = device.mem
        self.config = device.config
        self.stats = Counters()
        self.record_history = record_history
        self.history = []
        #: thread contexts attached so far, over every launch (a count:
        #: the runtime holds no per-thread state past a launch)
        self.threads = 0
        self.tracer = None

    @property
    def tracer(self):
        """The runtime's one observer slot (see :mod:`repro.stm.trace`):
        ``None``, one observer, or a tuple of observers called in order."""
        return self._tracer

    @tracer.setter
    def tracer(self, observer):
        # the seams are resolved here, once, so an unobserved commit,
        # abort or real read pays one ``is None`` test
        self._tracer = observer
        (self._on_commit, self._on_abort, self._on_tx_read,
         self._filter_validation) = observer_seams(observer)

    def observe(self, observer):
        """Add ``observer`` to the slot after any already there."""
        current = self._tracer
        if current is None:
            self.tracer = observer
        elif isinstance(current, tuple):
            self.tracer = current + (observer,)
        else:
            self.tracer = (current, observer)

    def attach(self, tc):
        """Install a :attr:`tx_class` transaction thread on ``tc``.

        Pass ``runtime.attach`` as the ``attach=`` argument of
        ``Device.launch``.
        """
        tc.stm = self.tx_class(self, tc)
        self.threads += 1

    # ------------------------------------------------------------------
    # Statistics helpers
    # ------------------------------------------------------------------
    def note_commit(self, tx, version=None):
        self.stats.add("commits")
        on_commit = self._on_commit
        if on_commit is not None:
            on_commit(tx, version)
        if self.record_history:
            self.history.append(
                CommitRecord(
                    tid=tx.tc.tid,
                    version=version,
                    reads=list(tx.read_entries()),
                    writes=dict(tx.write_entries()),
                )
            )

    def note_abort(self, reason, tx=None):
        self.stats.add("aborts")
        self.stats.add("aborts.%s" % reason)
        on_abort = self._on_abort
        if on_abort is not None and tx is not None:
            on_abort(tx, reason)

    def abort_rate(self):
        """Aborted attempts / started attempts."""
        commits = self.stats["commits"]
        aborts = self.stats["aborts"]
        attempts = commits + aborts
        return aborts / attempts if attempts else 0.0

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def metric_namespace(self):
        """Root of this runtime's metric names, e.g. ``stm.hv_sorting``."""
        return "stm.%s" % self.name.replace("-", "_")

    def metric_gauges(self):
        """Point-in-time values published next to the counters.

        Subclasses extend the base dict with their variant-specific state
        (clock value, lock-table occupancy, sequence locks, static
        capacities, ...); keys are relative to :meth:`metric_namespace`.
        ``abort_rate`` is the derived point-in-time ratio the service
        layer's SLO dashboards read (the raw ``commits``/``aborts``
        counters are published separately by :meth:`publish_metrics`);
        rounded to a fixed 6 decimals so artifacts diff clean.
        """
        return {
            "threads": self.threads,
            "abort_rate": round(self.abort_rate(), 6),
        }

    def publish_metrics(self, registry):
        """Report this runtime's statistics into a metric registry.

        The counter bag lands under the variant namespace with dashes
        normalized (``aborts.lock_conflict`` of ``hv-sorting`` becomes
        ``stm.hv_sorting.aborts.lock_conflict``); :meth:`metric_gauges`
        values are published as gauges.  Returns the namespace.
        """
        namespace = self.metric_namespace()
        registry.absorb_counters(namespace, self.stats)
        for name, value in sorted(self.metric_gauges().items()):
            registry.gauge("%s.%s" % (namespace, name)).set(value)
        return namespace


class TxThread:
    """Per-thread transactional state; subclasses implement the barriers."""

    def __init__(self, runtime, tc):
        self.runtime = runtime
        self.tc = tc
        self.is_opaque = True

    # Subclasses must provide generator methods:
    #   tx_begin, tx_read, tx_write, tx_commit, tx_abort
    # and the history accessors read_entries() / write_entries().

    def read_entries(self):
        """Iterable of (addr, value) transactional reads (for history)."""
        return ()

    def write_entries(self):
        """Iterable of (addr, value) speculative writes (for history)."""
        return ()

    def _note_real_read(self, addr):
        """Tell the runtime's observers a *real* global read served this
        tx_read (the ``on_tx_read`` seam).

        Write-buffering runtimes call this right after the global read of
        their read barrier (never on the write-set fast path), so an
        observer can flag reads that should have been served from the
        transaction's own write buffer.
        """
        on_tx_read = self.runtime._on_tx_read
        if on_tx_read is not None:
            on_tx_read(self, addr)

    def _filter_validation(self, stage, verdict):
        """The validation seam: every failing read-set validation verdict
        (TBV/VBV, at ``stage`` "read" or "commit") passes through the
        observers' ``filter_validation`` before the runtime acts on it, and
        an observer may flip it.  Passing verdicts short-circuit — honest
        fast paths pay one truth test.
        """
        if verdict:
            return verdict
        seam = self.runtime._filter_validation
        if seam is None:
            return verdict
        return seam(self, stage, verdict)
