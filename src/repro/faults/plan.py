"""Deterministic fault plans and the armed injector.

A :class:`FaultSpec` names one fault *kind* and its trigger point: the
lanes it targets, a memory region (resolved against the device's named
allocations at arm time) or exact address, and an occurrence window
(``skip``/``count``) over the matching operations.  Everything is counted
in simulated operation order, so a plan replays identically run after run —
no wall clock, no unseeded randomness.

Two families of kinds share the one grammar, plan and injector.  *Crash*
kinds model broken hardware: lost stores, torn words, stuck clocks, a
starved warp.  *Byzantine* kinds model a hostile participant, after
"Byzantine-Tolerant Consensus in GPU-Inspired Shared Memory" (PAPERS.md,
arXiv 2503.12788): designated lanes that follow the STM protocol's letter
while cheating at its trust points.

Lanes are selected by ``tids`` (``+``-separated in CLI syntax) or by
residue class (``stride``/``offset``: every thread with ``tid % stride ==
offset``).  With no selector a crash kind targets every lane and a
byzantine kind targets lane 0.  The window counts per lane when lanes are
selected, and over all matching operations otherwise.  ``region``/``addr``
filter the memory seams; a field a kind does not use is ignored.

====================== ========== ==========================================
kind                   seam       effect (``param``)
====================== ========== ==========================================
``stale_read``         read       a global read returns the word's
                                  *previous* value
``torn_write``         write      a global write lands partially: only the
                                  bits under ``param`` (default ``0xFFFF``)
``dropped_write``      write      a global write is silently lost
``cas_fail``           atomic     a CAS / lock ``atomicOr`` that would have
                                  succeeded spuriously reports failure
``lost_lock_release``  write      a store of an unlock value is dropped
``clock_skew``         atomic     an ``atomicAdd`` skips its increment and
                                  returns the stale value
``warp_stall``         scheduler  warp ``warp`` on SM ``sm`` is refused issue
                                  for ``duration`` decisions after ``after``
``lie_validation``     observer   a failing validation verdict (TBV/VBV,
                                  read- or commit-time) is reported clean
``torn_publish``       write      a lock/sequence release publishes torn
                                  metadata (version stride ``param``,
                                  default ``0x100000``)
``stale_replay``       event      an aborting lane blasts its stale write
                                  buffer to memory, outside any lock
``lock_hoard``         write      the lane's lock/sequence release stores
                                  are dropped; its locks stay held forever
``clock_poison``       atomic     the lane's clock tick rolls the global
                                  clock back by ``param`` (default 2)
====================== ========== ==========================================

The plan is *armed* onto a device (:meth:`FaultPlan.arm`), which resolves
region names to address ranges and installs a :class:`FaultInjector` as
``device.fault_injector``.  The injector is a thread-context probe
(:class:`~repro.gpu.thread.ProbedThreadCtx`) that binds only the seams its
armed kinds use: an armed device gives every thread a probed context with
the injector last in its probe tuple, after any timeline, sanitizer or
link probe; an unarmed device pays nothing.  ``run_workload`` also adds it
to the runtime's observer slot, where ``lie_validation`` binds
``filter_validation``.
"""

from repro.gpu.events import Phase

#: broken hardware: with no lane selector, every lane
CRASH_KINDS = (
    "stale_read",
    "torn_write",
    "dropped_write",
    "cas_fail",
    "lost_lock_release",
    "clock_skew",
    "warp_stall",
)

#: hostile lanes: with no lane selector, lane 0
BYZ_KINDS = (
    "lie_validation",
    "torn_publish",
    "stale_replay",
    "lock_hoard",
    "clock_poison",
)

FAULT_KINDS = CRASH_KINDS + BYZ_KINDS

#: the write seam's kinds by rank: crash write faults keep plan order, then
#: a hoard drops a release before a torn publish could tear it
_WRITE_RANK = {"torn_write": 0, "dropped_write": 0, "lost_lock_release": 0,
               "lock_hoard": 1, "torn_publish": 2}
_ATOMIC_KINDS = ("cas_fail", "clock_skew", "clock_poison")
#: kinds no address triggers: ``region``/``addr`` are ignored, not resolved
_UNADDRESSED = ("warp_stall", "lie_validation", "stale_replay")

#: region names that make up the metadata plane byzantine kinds target
_LOCK_REGIONS = ("g_lockTab", "egpgv_locks")
_SEQ_REGION = "g_seqlock"
_CGL_REGION = "cgl_lock"
_CLOCK_REGIONS = ("g_clock", "egpgv_clock")

#: a write handler's "not this fault" (``None`` means "drop the store")
_PASS = object()


class FaultSpec:
    """One deterministic trigger point (plain data; picklable).

    ``region`` names a device allocation (e.g. ``"g_lockTab"``,
    ``"g_clock"``, a workload's data region); ``addr`` pins one exact word
    instead.  ``tids`` or ``stride``/``offset`` select lanes (see the
    module docstring for the defaults).  Of the matching operations, the
    first ``skip`` are passed through and the next ``count`` are faulted.

    ``param`` is kind-specific (see the kinds table).  ``sm``/``warp``/
    ``after``/``duration`` configure ``warp_stall``: starting ``after``
    issue decisions on SM ``sm``, the scheduler avoids warp ``warp`` for
    ``duration`` decisions (when another warp is resident).
    """

    __slots__ = (
        "kind", "region", "addr", "tids", "stride", "offset", "skip",
        "count", "param", "sm", "warp", "after", "duration",
    )

    def __init__(self, kind, region=None, addr=None, tids=None, stride=None,
                 offset=0, skip=0, count=1, param=None, sm=0, warp=0,
                 after=0, duration=8):
        if kind not in FAULT_KINDS:
            raise ValueError(
                "unknown fault kind %r; expected one of %s"
                % (kind, ", ".join(FAULT_KINDS))
            )
        if skip < 0 or count < 1:
            raise ValueError("fault window skip=%d,count=%d: need skip >= 0 "
                             "and count >= 1" % (skip, count))
        if kind == "warp_stall" and duration < 1:
            raise ValueError("fault option duration=%d: warp_stall needs "
                             "duration >= 1" % duration)
        if stride is not None:
            if stride < 1:
                raise ValueError("fault option stride=%d: need stride >= 1"
                                 % stride)
            if tids is not None:
                raise ValueError("fault option stride=%d: tids already "
                                 "selects the lanes" % stride)
        if offset < 0:
            raise ValueError("fault option offset=%d: need offset >= 0"
                             % offset)
        self.kind = kind
        self.region = region
        self.addr = addr
        self.tids = tuple(sorted(tids)) if tids is not None else None
        self.stride = stride
        self.offset = offset
        self.skip = skip
        self.count = count
        self.param = param
        self.sm = sm
        self.warp = warp
        self.after = after
        self.duration = duration

    @classmethod
    def parse(cls, text):
        """Build a spec from CLI syntax ``kind[:key=value,...]``.

        Examples: ``stale_read:region=data,skip=3,count=2``,
        ``torn_publish:stride=16,offset=3``; explicit lanes use ``+``:
        ``lie_validation:tids=1+17,skip=1``.  A malformed text raises
        :class:`ValueError` naming the rejected token.
        """
        kind, _, rest = text.partition(":")
        kwargs = {}
        if rest:
            for item in rest.split(","):
                key, sep, value = item.partition("=")
                if not sep:
                    raise ValueError("bad fault option %r in %r" % (item, text))
                key = key.strip()
                value = value.strip()
                if key not in cls.__slots__ or key == "kind":
                    raise ValueError("unknown fault option %r in %r" % (key, text))
                if key in kwargs:
                    raise ValueError(
                        "duplicate fault option %r in %r" % (key, text)
                    )
                if key == "region":
                    kwargs[key] = value
                elif key == "tids":
                    kwargs[key] = tuple(_parse_int(key, part, text)
                                        for part in value.split("+"))
                else:
                    kwargs[key] = _parse_int(key, value, text)
        return cls(kind.strip(), **kwargs)

    def as_dict(self):
        return {slot: getattr(self, slot) for slot in self.__slots__}

    def targets(self, tid):
        """True when lane ``tid`` is one this spec selects."""
        if self.tids is not None:
            return tid in self.tids
        if self.stride is not None:
            return tid % self.stride == self.offset
        return self.kind in CRASH_KINDS or tid == 0

    def lanes(self, total_threads):
        """Every selected lane tid below ``total_threads`` (sorted)."""
        if self.tids is not None:
            return tuple(t for t in self.tids if t < total_threads)
        if self.stride is not None:
            return tuple(range(self.offset, total_threads, self.stride))
        if self.kind in CRASH_KINDS:
            return tuple(range(total_threads))
        return (0,) if total_threads else ()


def _parse_int(key, value, text):
    """One integer option value, naming the offending token."""
    try:
        return int(value, 0)
    except ValueError:
        raise ValueError(
            "fault option %s=%s in %r is not an integer" % (key, value, text)
        )


class FaultPlan:
    """An unarmed bag of :class:`FaultSpec`; picklable, reusable."""

    def __init__(self, specs=()):
        self.specs = [
            spec if isinstance(spec, FaultSpec) else FaultSpec.parse(spec)
            for spec in specs
        ]

    def arm(self, device):
        """Resolve the plan against ``device`` and install the injector.

        Region names (and the byzantine kinds' metadata plane) are
        resolved against the device's *current* allocations, so arm after
        workload setup and runtime creation (the lock table and clock are
        runtime allocations).  Returns the installed
        :class:`FaultInjector`.
        """
        injector = FaultInjector(self.specs, device.mem)
        device.fault_injector = injector
        return injector

    def byz_tids(self, total_threads):
        """The union of the byzantine specs' lanes."""
        tids = set()
        for spec in self.specs:
            if spec.kind in BYZ_KINDS:
                tids.update(spec.lanes(total_threads))
        return tids


class _Armed:
    """One spec resolved to address ranges, with its occurrence window."""

    __slots__ = ("spec", "ranges", "per_lane", "seen")

    def __init__(self, spec, ranges):
        self.spec = spec
        self.ranges = ranges  # list of (lo, hi) half-open; None = any addr
        self.per_lane = spec.tids is not None or spec.stride is not None
        self.seen = {}  # lane (None when counted over all lanes) -> index

    def matches(self, tid, addr):
        if not self.spec.targets(tid):
            return False
        ranges = self.ranges
        if ranges is None:
            return True
        for lo, hi in ranges:
            if lo <= addr < hi:
                return True
        return False

    def take(self, tid):
        """Advance the occurrence counter; True when inside the window."""
        key = tid if self.per_lane else None
        index = self.seen.get(key, 0)
        self.seen[key] = index + 1
        spec = self.spec
        return spec.skip <= index < spec.skip + spec.count


class FaultInjector:
    """The armed form of a plan: each kind's handler behind the seams it
    uses, plus the scheduler's ``select_index`` hook.

    Only the seams an armed kind uses are bound (``read``, ``write``,
    ``atomic``, ``event`` as a probe; ``filter_validation`` as a runtime
    observer), so an empty plan exposes none.  All handlers are
    deterministic functions of the simulated operation order, so armed
    runs replay bit-identically.  Every ``fired`` entry carries the
    issuing lane's cycle (``None`` for a warp stall): the byzantine
    campaign's detection-latency zero point.
    """

    def __init__(self, specs, mem):
        self._mem = mem
        #: chronological log of fired faults (dicts; test/CLI evidence)
        self.fired = []
        #: True when a byzantine kind is armed (the runner then splits
        #: oracle violations by culprit)
        self.byzantine = any(spec.kind in BYZ_KINDS for spec in specs)
        #: data addresses a stale replay mutated outside any transaction:
        #: final-state divergence there is the adversary's
        self.byz_addrs = set()
        armed = [_Armed(spec, self._resolve(spec, mem)) for spec in specs]
        self._reads = [a for a in armed if a.spec.kind == "stale_read"]
        # the write and atomic seams dispatch to each kind's handler
        self._writes = [
            (a, getattr(self, "_" + a.spec.kind))
            for a in sorted((a for a in armed if a.spec.kind in _WRITE_RANK),
                            key=lambda a: _WRITE_RANK[a.spec.kind])
        ]
        self._atomics = [(a, getattr(self, "_" + a.spec.kind))
                         for a in armed if a.spec.kind in _ATOMIC_KINDS]
        self._replays = [a for a in armed if a.spec.kind == "stale_replay"]
        self._lies = [a for a in armed if a.spec.kind == "lie_validation"]
        self._stalls = [a for a in armed if a.spec.kind == "warp_stall"]
        self._decisions = {}  # sm index -> issue decisions seen
        # previous-value shadow for stale reads, kept by the write seam
        self._prev = {} if self._reads else None
        if self.byzantine:
            self._map_metadata(mem)
        if self._reads:
            self.read = self._stale_read
        if self._writes or self._reads:
            self.write = self._write
        if self._atomics:
            self.atomic = self._atomic
        if self._replays:
            self.event = self._stale_replay
        if self._lies:
            self.filter_validation = self._lie_validation

    @staticmethod
    def _resolve(spec, mem):
        if spec.kind in _UNADDRESSED:
            return None
        if spec.addr is not None:
            return [(spec.addr, spec.addr + 1)]
        if spec.region is None:
            return None
        ranges = [
            (region.base, region.end)
            for region in mem.regions
            if region.name == spec.region
        ]
        if not ranges:
            raise ValueError(
                "fault spec %r targets region %r but the device has no such "
                "allocation (regions: %s)"
                % (spec.kind, spec.region,
                   ", ".join(sorted({r.name for r in mem.regions})) or "none")
            )
        return ranges

    def _map_metadata(self, mem):
        """Resolve the metadata plane the byzantine kinds target.  A kind
        whose seam does not exist on this runtime (e.g. the clock on VBV)
        simply never fires: the "immune" cell of the campaign matrix, not
        an error."""
        self._lock_ranges = []
        self._seq_addrs = set()
        self._cgl_addrs = set()
        self._clock_addrs = set()
        for region in mem.regions:
            if region.name in _LOCK_REGIONS:
                self._lock_ranges.append((region.base, region.end))
            elif region.name == _SEQ_REGION:
                self._seq_addrs.update(range(region.base, region.end))
            elif region.name == _CGL_REGION:
                self._cgl_addrs.update(range(region.base, region.end))
            elif region.name in _CLOCK_REGIONS:
                self._clock_addrs.update(range(region.base, region.end))

    def _in_lock_table(self, addr):
        for lo, hi in self._lock_ranges:
            if lo <= addr < hi:
                return True
        return False

    def _log(self, armed, tc, addr, detail):
        self.fired.append({
            "kind": armed.spec.kind,
            "tid": tc.tid if tc is not None else -1,
            "addr": addr,
            "cycle": tc.cycles_total if tc is not None else None,
            "detail": detail,
        })

    # ------------------------------------------------------------------
    # Probe and observer seams (bound in __init__ only when used)
    # ------------------------------------------------------------------
    def _stale_read(self, tc, addr, value):
        """Serve the word's previous value."""
        tid = tc.tid
        for armed in self._reads:
            if not armed.matches(tid, addr):
                continue
            stale = self._prev.get(addr)
            if stale is None or stale == value:
                continue  # no older value to serve; not a fault occurrence
            if armed.take(tid):
                self._log(armed, tc, addr,
                          "served %d instead of %d" % (stale, value))
                return stale
        return value

    def _write(self, tc, addr, phase, value, old):
        """Alter or drop (``None``) a store; also keeps the stale-read
        shadow."""
        if self._prev is not None:
            self._prev[addr] = old
        tid = tc.tid
        for armed, handle in self._writes:
            if armed.matches(tid, addr):
                result = handle(armed, tc, addr, value, old)
                if result is not _PASS:
                    return result
        return value

    def _atomic(self, tc, op, addr, phase, a, b):
        """The faked result of an atomic, or None to perform it."""
        tid = tc.tid
        for armed, handle in self._atomics:
            if armed.matches(tid, addr):
                faked = handle(armed, tc, op, addr, a, b)
                if faked is not None:
                    return faked
        return None

    def _lie_validation(self, tx, stage, verdict):
        """Flip a failing validation verdict when the lane lies at this
        opportunity."""
        if verdict:
            return verdict
        tc = tx.tc
        for armed in self._lies:
            if armed.spec.targets(tc.tid) and armed.take(tc.tid):
                self._log(armed, tc, None,
                          "reported a clean %s validation over a stale "
                          "read-set" % stage)
                return True
        return verdict

    # ------------------------------------------------------------------
    # Write handlers: the store's replacement, None to drop it, or _PASS
    # ------------------------------------------------------------------
    def _torn_write(self, armed, tc, addr, value, old):
        if not armed.take(tc.tid):
            return _PASS
        mask = armed.spec.param if armed.spec.param is not None else 0xFFFF
        torn = (value & mask) | (old & ~mask)
        self._log(armed, tc, addr,
                  "store of %d torn to %d (mask 0x%x)" % (value, torn, mask))
        return torn

    def _dropped_write(self, armed, tc, addr, value, old):
        if not armed.take(tc.tid):
            return _PASS
        self._log(armed, tc, addr, "store of %d dropped" % value)
        return None

    def _lost_lock_release(self, armed, tc, addr, value, old):
        # only a *release* (store of an unlocked/zero-lock-bit word) can be
        # lost; acquisitions go through atomics anyway
        if value & 1 or not armed.take(tc.tid):
            return _PASS
        self._log(armed, tc, addr, "release of %d dropped" % value)
        return None

    def _lock_hoard(self, armed, tc, addr, value, old):
        if self._in_lock_table(addr):
            release = not value & 1
        elif addr in self._seq_addrs:
            release = value % 2 == 0
        elif addr in self._cgl_addrs:
            release = value == 0
        else:
            release = False
        if not release or not armed.take(tc.tid):
            return _PASS
        self._log(armed, tc, addr,
                  "hoarded: dropped release store of %d" % value)
        return None

    def _torn_publish(self, armed, tc, addr, value, old):
        stride = armed.spec.param if armed.spec.param is not None else 0x100000
        if self._in_lock_table(addr):
            # garbage version bits, lock bit preserved: the word looks
            # free but names a version from the future
            torn = value | (stride << 1)
        elif addr in self._seq_addrs:
            # parity-preserving jump: the sequence stays "unlocked" but
            # implies commits that never happened
            torn = value + (stride << 1)
        elif addr in self._cgl_addrs:
            # a "release" that leaves the coarse lock held
            torn = value | 1 | stride
        else:
            return _PASS  # off the metadata plane: not an occurrence
        if not armed.take(tc.tid):
            return _PASS
        self._log(armed, tc, addr, "published %d instead of %d" % (torn, value))
        return torn

    # ------------------------------------------------------------------
    # Atomic handlers: the faked result, or None
    # ------------------------------------------------------------------
    def _cas_fail(self, armed, tc, op, addr, a, b):
        """A CAS (``cas``) or lock ``atomicOr`` (``or``) that would have
        succeeded reports a conflicting value and mutates nothing."""
        old = self._mem.words[addr]
        if op == "cas":
            if old == a and armed.take(tc.tid):
                self._log(armed, tc, addr,
                          "CAS(%d -> %d) spuriously failed" % (a, b))
                return old + 1
        elif op == "or":
            if not old & a and armed.take(tc.tid):
                self._log(armed, tc, addr,
                          "atomicOr(0x%x) spuriously failed" % a)
                return old | a
        return None

    def _clock_skew(self, armed, tc, op, addr, a, b):
        """An ``atomicAdd`` skips its increment and returns the stale
        value."""
        if op != "add" or not armed.take(tc.tid):
            return None
        old = self._mem.words[addr]
        self._log(armed, tc, addr, "tick by %d skipped (stale %d)" % (a, old))
        return old

    def _clock_poison(self, armed, tc, op, addr, a, b):
        """The lane's clock increment rolls the clock back instead; the
        lane still believes its increment succeeded."""
        if op != "add" or addr not in self._clock_addrs \
                or not armed.take(tc.tid):
            return None
        words = self._mem.words
        old = words[addr]
        rollback = armed.spec.param if armed.spec.param is not None else 2
        words[addr] = max(0, old - rollback)
        self._log(armed, tc, addr, "clock rolled back from %d to %d"
                  % (old, words[addr]))
        return old

    # ------------------------------------------------------------------
    # The event seam
    # ------------------------------------------------------------------
    def _stale_replay(self, tc, name, phase):
        """An aborting lane replays its stale write buffer."""
        stm = tc.stm
        if name != "abort" or stm is None:
            return
        entries = stm.write_entries()
        # write_entries returns a dict-like (addr -> value) or pair iterable
        writes = list(entries.items() if hasattr(entries, "items")
                      else entries)
        if not writes:
            return
        tid = tc.tid
        for armed in self._replays:
            if armed.spec.targets(tid) and armed.take(tid):
                # Out-of-band memory blast: the lockstep protocol allows
                # one globally-visible op per resumption, so the replay
                # mutates memory directly (adversary stores cost nothing)
                # while still announcing itself to the sanitizer as the
                # unlocked commit-phase stores it semantically is.
                sanitizer = stm.runtime.device.sanitizer
                words = self._mem.words
                for addr, value in writes:
                    if sanitizer is not None:
                        sanitizer.write(tc, addr, Phase.COMMIT, value,
                                        words[addr])
                    words[addr] = value
                    self.byz_addrs.add(addr)
                self._log(armed, tc, writes[0][0],
                          "replayed %d stale write(s) after abort"
                          % len(writes))
                return

    # ------------------------------------------------------------------
    # Scheduler hook
    # ------------------------------------------------------------------
    def select_index(self, sm_index, warps, index):
        """``warp_stall``: possibly redirect an issue decision away from a
        stalled warp.

        Counts issue decisions per SM; inside a spec's
        ``(after, after + duration]`` window the victim warp is skipped in
        favour of the next resident warp.  A lone resident warp is never
        stalled (the device must keep stepping, so the watchdog — not the
        injector — owns the no-progress case).
        """
        stalls = self._stalls
        if not stalls:
            return index
        seen = self._decisions.get(sm_index, 0) + 1
        self._decisions[sm_index] = seen
        for armed in stalls:
            spec = armed.spec
            if spec.sm != sm_index:
                continue
            if not spec.after < seen <= spec.after + spec.duration:
                continue
            if len(warps) <= 1 or warps[index].warp_id != spec.warp:
                continue
            for offset in range(1, len(warps)):
                redirect = (index + offset) % len(warps)
                if warps[redirect].warp_id != spec.warp:
                    self._log(armed, None, -1,
                              "sm %d decision %d: warp %d stalled, issued %d"
                              % (sm_index, seen, spec.warp,
                                 warps[redirect].warp_id))
                    return redirect
        return index
