"""Byzantine adversary layer: lanes that *lie* instead of crashing.

The PR-4 fault corpus (:mod:`repro.faults.plan`) models crash/protocol
bugs — lost stores, stuck clocks, torn bits.  This module models
*byzantine* lanes, following "Byzantine-Tolerant Consensus in
GPU-Inspired Shared Memory" (PAPERS.md, arXiv 2503.12788): designated
threads follow the STM protocol's letter while actively cheating at its
trust points.  The behavior vocabulary (``BYZ_BEHAVIORS``):

``lie_validation``
    report a clean read-set the lane knows is stale: every failing
    validation verdict (TBV/VBV, read-time or commit-time) is flipped to
    "consistent" through the runtime observer slot's ``filter_validation``
    seam (:mod:`repro.stm.trace`), so the lane commits doomed
    transactions.
``torn_publish``
    publish torn lock/version metadata mid-commit: release stores to the
    version-lock table get garbage version bits, the VBV sequence lock
    jumps by a torn even stride, the CGL coarse lock is "released" to a
    nonzero word.
``stale_replay``
    replay stale versions after abort: the lane's aborted write-buffer is
    written straight to global memory from the abort window, outside any
    lock or version discipline.
``lock_hoard``
    hoard locks past the transaction window: the lane's lock/sequence
    release stores are silently dropped, so every lock it commits under
    stays held forever.
``clock_poison``
    poison the global clock: the lane's commit-time clock increment
    instead *rolls the clock back*, so later (innocent) writers reuse
    version numbers.

Like :class:`~repro.faults.plan.FaultPlan`, a :class:`ByzantinePlan` is
seeded purely by the deterministic operation order — armed runs replay
bit-identically — and costs nothing while disarmed (an unarmed device
uses the base thread context untouched).  :class:`ByzantineInjector`
installs through the same ``device.fault_injector`` seam as a
:class:`~repro.faults.plan.FaultInjector` and is, like it, a probe of
every thread context (:class:`~repro.gpu.thread.ProbedThreadCtx`), so it
composes with the sanitizer, the telemetry timeline and multi-device
link accounting unchanged; it also joins the runtime's observer slot for
the validation seam.

Containment vocabulary (measured by :mod:`repro.faults.byzcampaign`):

* **blast radius** — innocent transactions corrupted (oracle violations
  attributed to non-byzantine tids by :func:`repro.stm.oracle
  .attribute_history`) by the adversary's actions;
* **detection latency** — simulated cycles from the first lying action
  (``fired[0]["cycle"]``) to the sanitizer's first violation
  (``StmSanitizer.first_violations``).
"""

from repro.faults.plan import FaultPlan
from repro.gpu.events import Phase

#: The byzantine behavior vocabulary (the ``behavior`` field of a spec).
BYZ_BEHAVIORS = (
    "lie_validation",
    "torn_publish",
    "stale_replay",
    "lock_hoard",
    "clock_poison",
)

#: Region names that make up the version-lock metadata plane.
_LOCK_REGIONS = ("g_lockTab", "egpgv_locks")
_SEQ_REGION = "g_seqlock"
_CGL_REGION = "cgl_lock"
_CLOCK_REGIONS = ("g_clock", "egpgv_clock")

#: Default garbage stride for torn publishes / default clock rollback.
_DEFAULT_TEAR = 0x100000
_DEFAULT_ROLLBACK = 2


def _parse_token_int(key, value, text):
    """Parse one integer option value, naming the offending token."""
    try:
        return int(value, 0)
    except ValueError:
        raise ValueError(
            "fault option %s=%s in %r is not an integer" % (key, value, text)
        )


class ByzantineSpec:
    """One byzantine behavior bound to a set of lanes.

    Lanes are designated either explicitly (``tids``, a ``+``-separated
    list in CLI syntax) or by residue class (``stride``/``offset``: every
    thread with ``tid % stride == offset``); with neither given, thread 0
    is the adversary.  ``skip``/``count`` bound the *per-lane* occurrence
    window exactly like :class:`~repro.faults.plan.FaultSpec`: each lane
    skips its first ``skip`` opportunities, then cheats on the next
    ``count``.  ``param`` is behavior-specific: the torn version stride of
    ``torn_publish`` and the rollback amount of ``clock_poison``.
    """

    __slots__ = ("behavior", "tids", "stride", "offset", "skip", "count",
                 "param")

    def __init__(self, behavior, tids=None, stride=None, offset=0, skip=0,
                 count=1, param=None):
        if behavior not in BYZ_BEHAVIORS:
            raise ValueError(
                "unknown byzantine behavior %r; expected one of %s"
                % (behavior, ", ".join(BYZ_BEHAVIORS))
            )
        if skip < 0 or count < 1:
            raise ValueError("need skip >= 0 and count >= 1")
        if stride is not None and stride < 1:
            raise ValueError("need stride >= 1")
        if offset < 0:
            raise ValueError("need offset >= 0")
        self.behavior = behavior
        self.tids = tuple(sorted(tids)) if tids is not None else None
        self.stride = stride
        self.offset = offset
        self.skip = skip
        self.count = count
        self.param = param

    def is_byz(self, tid):
        """True when ``tid`` is one of this spec's designated lanes."""
        tids = self.tids
        if tids is not None:
            return tid in tids
        stride = self.stride
        if stride is not None:
            return tid % stride == self.offset
        return tid == 0

    def lanes(self, total_threads):
        """All designated lane tids below ``total_threads`` (sorted)."""
        tids = self.tids
        if tids is not None:
            return tuple(t for t in tids if t < total_threads)
        stride = self.stride
        if stride is not None:
            return tuple(range(self.offset, total_threads, stride))
        return (0,) if total_threads else ()

    @classmethod
    def parse(cls, text):
        """Build a spec from CLI syntax ``behavior[:key=value,...]``.

        Example: ``torn_publish:stride=16,offset=3,count=4``; explicit
        lanes use ``+``: ``lie_validation:tids=1+17,skip=1``.
        """
        behavior, _, rest = text.partition(":")
        kwargs = {}
        if rest:
            for item in rest.split(","):
                key, sep, value = item.partition("=")
                if not sep:
                    raise ValueError(
                        "bad byzantine option %r in %r" % (item, text)
                    )
                key = key.strip()
                value = value.strip()
                if key not in cls.__slots__ or key == "behavior":
                    raise ValueError(
                        "unknown byzantine option %r in %r" % (key, text)
                    )
                if key in kwargs:
                    raise ValueError(
                        "duplicate byzantine option %r in %r" % (key, text)
                    )
                if key == "tids":
                    kwargs[key] = tuple(
                        _parse_token_int("tids", part, text)
                        for part in value.split("+")
                    )
                else:
                    kwargs[key] = _parse_token_int(key, value, text)
        return cls(behavior.strip(), **kwargs)

    def as_dict(self):
        return {slot: getattr(self, slot) for slot in self.__slots__}


class ByzantinePlan(FaultPlan):
    """An unarmed bag of :class:`ByzantineSpec`; picklable, reusable.

    Subclasses :class:`~repro.faults.plan.FaultPlan` so every existing
    ``fault_plan=`` seam (``run_workload``, the sweep cells) accepts it
    unchanged; :meth:`arm` installs a :class:`ByzantineInjector` instead
    of a ``FaultInjector``.
    """

    def __init__(self, specs=()):
        self.specs = [
            spec if isinstance(spec, ByzantineSpec) else ByzantineSpec.parse(spec)
            for spec in specs
        ]

    def add(self, behavior, **kwargs):
        """Append a spec; returns ``self`` for chaining."""
        self.specs.append(ByzantineSpec(behavior, **kwargs))
        return self

    def arm(self, device):
        """Install a :class:`ByzantineInjector` on ``device``; arm after
        workload setup and runtime creation so the metadata regions (lock
        table, clock, sequence lock) already exist, then add the injector
        to the runtime's observer slot (``runtime.observe``) for its
        validation seam.  Returns the injector."""
        injector = ByzantineInjector(self.specs, device.mem)
        device.fault_injector = injector
        return injector

    def byz_tids(self, total_threads):
        """The union of designated lanes across all specs."""
        tids = set()
        for spec in self.specs:
            tids.update(spec.lanes(total_threads))
        return tids


class _ByzArmed:
    """One spec with its per-lane occurrence counters."""

    __slots__ = ("spec", "seen")

    def __init__(self, spec):
        self.spec = spec
        self.seen = {}  # tid -> opportunities seen

    def take(self, tid):
        """Advance the lane's counter; True when inside its window."""
        index = self.seen.get(tid, 0)
        self.seen[tid] = index + 1
        spec = self.spec
        return spec.skip <= index < spec.skip + spec.count


class ByzantineInjector:
    """The armed form of a plan: a thread-context probe (the ``write``,
    ``atomic`` and ``event`` seams), a runtime observer (the
    ``filter_validation`` seam) and the scheduler's ``select_index``.

    All decisions are deterministic functions of the simulated operation
    order, so armed runs replay bit-identically.  ``now`` is kept current
    by the seams (the issuing lane's ``cycles_total``), and every fired
    entry carries the cycle of the lying action — the campaign's
    detection-latency zero point.
    """

    def __init__(self, specs, mem):
        self._mem = mem
        #: chronological log of byzantine actions (dicts with a ``cycle``)
        self.fired = []
        #: data addresses the adversary mutated outside any transaction
        #: (stale replays) — final-state divergence there is *its* fault
        self.byz_addrs = set()
        #: simulated-cycle witness of the issuing lane (set by the seams)
        self.now = 0
        self._lie = []
        self._torn = []
        self._replay = []
        self._hoard = []
        self._poison = []
        buckets = {
            "lie_validation": self._lie,
            "torn_publish": self._torn,
            "stale_replay": self._replay,
            "lock_hoard": self._hoard,
            "clock_poison": self._poison,
        }
        for spec in specs:
            buckets[spec.behavior].append(_ByzArmed(spec))
        # Metadata plane, resolved against the current allocations.  A
        # behavior whose seam does not exist on this runtime (e.g. the
        # clock on VBV) simply never fires — that is the "trivially
        # contained" cell of the matrix, not an error.
        lock_ranges = []
        seq_addrs = set()
        cgl_addrs = set()
        clock_addrs = set()
        for region in mem.regions:
            if region.name in _LOCK_REGIONS:
                lock_ranges.append((region.base, region.end))
            elif region.name == _SEQ_REGION:
                seq_addrs.update(range(region.base, region.end))
            elif region.name == _CGL_REGION:
                cgl_addrs.update(range(region.base, region.end))
            elif region.name in _CLOCK_REGIONS:
                clock_addrs.update(range(region.base, region.end))
        self._lock_ranges = lock_ranges
        self._seq_addrs = seq_addrs
        self._cgl_addrs = cgl_addrs
        self._clock_addrs = clock_addrs

    # ------------------------------------------------------------------
    # Metadata classification
    # ------------------------------------------------------------------
    def _in_lock_table(self, addr):
        for lo, hi in self._lock_ranges:
            if lo <= addr < hi:
                return True
        return False

    def _is_release(self, addr, value):
        """Is this store a lock/sequence release (the hoard target)?"""
        if self._in_lock_table(addr):
            return not value & 1
        if addr in self._seq_addrs:
            return value % 2 == 0
        if addr in self._cgl_addrs:
            return value == 0
        return False

    def _tear(self, addr, value, param):
        """The torn form of a metadata publish; None off the metadata
        plane (so occurrence windows only count actual publishes)."""
        stride = param if param is not None else _DEFAULT_TEAR
        if self._in_lock_table(addr):
            # garbage version bits, lock bit preserved: the word looks
            # free but names a version from the future
            return value | (stride << 1)
        if addr in self._seq_addrs:
            # parity-preserving jump: the sequence stays "unlocked" but
            # implies commits that never happened
            return value + (stride << 1)
        if addr in self._cgl_addrs:
            # a "release" that leaves the coarse lock held
            return value | 1 | stride
        return None

    # ------------------------------------------------------------------
    # Thread-context probe seams
    # ------------------------------------------------------------------
    def write(self, tc, addr, phase, value, old):
        self.now = tc.cycles_total
        tid = tc.tid
        for armed in self._hoard:
            if armed.spec.is_byz(tid) and self._is_release(addr, value) \
                    and armed.take(tid):
                self._log(armed, tid, addr,
                          "hoarded: dropped release store of %d" % value)
                return None
        for armed in self._torn:
            if armed.spec.is_byz(tid):
                torn = self._tear(addr, value, armed.spec.param)
                if torn is not None and armed.take(tid):
                    self._log(armed, tid, addr,
                              "published %d instead of %d" % (torn, value))
                    return torn
        return value

    def atomic(self, tc, op, addr, phase, a, b):
        """``clock_poison``: the lane's clock increment rolls the clock
        back instead."""
        self.now = tc.cycles_total
        if op == "add" and self._poison and addr in self._clock_addrs:
            tid = tc.tid
            old = self._mem.words[addr]
            for armed in self._poison:
                if armed.spec.is_byz(tid) and armed.take(tid):
                    spec = armed.spec
                    rollback = (spec.param if spec.param is not None
                                else _DEFAULT_ROLLBACK)
                    poisoned = max(0, old - rollback)
                    self._mem.words[addr] = poisoned
                    self._log(armed, tid, addr,
                              "clock rolled back from %d to %d"
                              % (old, poisoned))
                    # the lane still believes its increment succeeded
                    return old
        return None

    def event(self, tc, name, phase):
        """``stale_replay``: an aborting lane replays its stale
        write-buffer."""
        if name == "abort" and self._replay:
            self._replay_writes(tc)

    def select_index(self, sm_index, warps, index):
        return index

    # ------------------------------------------------------------------
    # Byzantine-only seams
    # ------------------------------------------------------------------
    def filter_validation(self, tx, stage, verdict):
        """The runtime observer's validation seam: flip a failing verdict
        when the lane lies at this opportunity."""
        if verdict or not self._lie:
            return verdict
        tid = tx.tc.tid
        for armed in self._lie:
            if armed.spec.is_byz(tid) and armed.take(tid):
                self.now = tx.tc.cycles_total
                self._log(armed, tid, None,
                          "reported a clean %s validation over a stale "
                          "read-set" % stage)
                return True
        return verdict

    def _replay_writes(self, ctx):
        stm = ctx.stm
        if stm is None:
            return
        entries = stm.write_entries()
        # write_entries returns a dict-like (addr -> value) or pair iterable
        writes = list(entries.items() if hasattr(entries, "items")
                      else entries)
        if not writes:
            return
        tid = ctx.tid
        for armed in self._replay:
            if armed.spec.is_byz(tid) and armed.take(tid):
                self.now = ctx.cycles_total
                # Out-of-band memory blast: the lockstep protocol allows
                # one globally-visible op per resumption, so the replay
                # mutates memory directly (adversary stores cost nothing)
                # while still announcing itself to the sanitizer as the
                # unlocked commit-phase stores it semantically is.
                sanitizer = stm.runtime.device.sanitizer
                words = self._mem.words
                for addr, value in writes:
                    if sanitizer is not None:
                        sanitizer.write(ctx, addr, Phase.COMMIT, value,
                                        words[addr])
                    words[addr] = value
                    self.byz_addrs.add(addr)
                self._log(armed, tid, writes[0][0],
                          "replayed %d stale write(s) after abort"
                          % len(writes))
                return

    # ------------------------------------------------------------------
    # Evidence
    # ------------------------------------------------------------------
    def _log(self, armed, tid, addr, detail):
        self.fired.append({
            "kind": armed.spec.behavior,
            "tid": tid,
            "addr": addr,
            "cycle": self.now,
            "detail": detail,
        })

    def byz_tids(self, total_threads):
        tids = set()
        for group in (self._lie, self._torn, self._replay, self._hoard,
                      self._poison):
            for armed in group:
                tids.update(armed.spec.lanes(total_threads))
        return tids
