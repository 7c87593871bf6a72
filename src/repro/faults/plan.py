"""Deterministic fault plans and the armed injector.

A :class:`FaultSpec` names one fault *kind* and its trigger point: a memory
region (resolved against the device's named allocations at arm time), an
optional exact address or thread filter, and an occurrence window
(``skip``/``count``) over the matching operations.  Everything is counted
in simulated operation order, so a plan replays identically run after run —
no wall clock, no unseeded randomness.

Fault kinds and the seams they model:

================== ====================================================
``stale_read``      a global read returns the word's *previous* value
                    (a relaxed-memory/incoherent-cache hazard)
``torn_write``      a global write lands partially: only the bits under
                    ``param`` (default ``0xFFFF``) are updated
``dropped_write``   a global write is silently lost
``cas_fail``        an atomic CAS / lock ``atomicOr`` that would have
                    succeeded spuriously reports failure (no mutation)
``lost_lock_release`` a write of an unlock value to the target region is
                    dropped (the lock stays held forever)
``clock_skew``      an ``atomicAdd``/``atomicInc`` on the target region
                    skips its increment and returns the stale value — a
                    non-monotonic global-clock tick
``warp_stall``      the scheduler refuses to issue one warp for a window
                    of issue decisions on its SM (starvation)
================== ====================================================

The plan is *armed* onto a device (:meth:`FaultPlan.arm`), which resolves
region names to address ranges and installs a :class:`FaultInjector` as
``device.fault_injector``.  The injector is a thread-context probe
(:class:`~repro.gpu.thread.ProbedThreadCtx`): an armed device gives every
thread a probed context with the injector last in its probe tuple, after
any timeline, sanitizer or link probe; an unarmed device pays nothing.
"""

FAULT_KINDS = (
    "stale_read",
    "torn_write",
    "dropped_write",
    "cas_fail",
    "lost_lock_release",
    "clock_skew",
    "warp_stall",
)

_MEMORY_KINDS = frozenset(FAULT_KINDS) - {"warp_stall"}

#: atomic op -> the fault kind that can fake it
_ATOMIC_FAULTS = {"cas": "cas_fail", "or": "cas_fail", "add": "clock_skew"}


class FaultSpec:
    """One deterministic trigger point (plain data; picklable).

    ``region`` names a device allocation (e.g. ``"g_lockTab"``,
    ``"g_clock"``, a workload's data region); ``addr`` pins one exact word
    instead.  ``tid`` restricts the fault to one thread.  Of the matching
    operations, the first ``skip`` are passed through and the next
    ``count`` are faulted.

    ``param`` is kind-specific: the keep-mask of ``torn_write`` (bits NOT
    in the mask retain their old value).  ``sm``/``warp``/``after``/
    ``duration`` configure ``warp_stall``: starting ``after`` issue
    decisions on SM ``sm``, the scheduler avoids warp ``warp`` for
    ``duration`` decisions (when another warp is resident).
    """

    __slots__ = (
        "kind", "region", "addr", "tid", "skip", "count", "param",
        "sm", "warp", "after", "duration",
    )

    def __init__(self, kind, region=None, addr=None, tid=None, skip=0,
                 count=1, param=None, sm=0, warp=0, after=0, duration=8):
        if kind not in FAULT_KINDS:
            raise ValueError(
                "unknown fault kind %r; expected one of %s"
                % (kind, ", ".join(FAULT_KINDS))
            )
        if skip < 0 or count < 1:
            raise ValueError("need skip >= 0 and count >= 1")
        if kind == "warp_stall" and duration < 1:
            raise ValueError("warp_stall needs duration >= 1")
        self.kind = kind
        self.region = region
        self.addr = addr
        self.tid = tid
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

        Example: ``stale_read:region=data,skip=3,count=2``.
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
                else:
                    try:
                        kwargs[key] = int(value, 0)
                    except ValueError:
                        raise ValueError(
                            "fault option %s=%s in %r is not an integer"
                            % (key, value, text)
                        )
        return cls(kind.strip(), **kwargs)

    def as_dict(self):
        return {slot: getattr(self, slot) for slot in self.__slots__}

    def __repr__(self):
        parts = ["%s=%r" % (s, getattr(self, s))
                 for s in self.__slots__[1:] if getattr(self, s) is not None]
        return "FaultSpec(%s%s)" % (self.kind, ", " + ", ".join(parts) if parts else "")


class FaultPlan:
    """An unarmed bag of :class:`FaultSpec`; picklable, reusable."""

    def __init__(self, specs=()):
        self.specs = [
            spec if isinstance(spec, FaultSpec) else FaultSpec.parse(spec)
            for spec in specs
        ]

    def add(self, kind, **kwargs):
        """Append a spec; returns ``self`` for chaining."""
        self.specs.append(FaultSpec(kind, **kwargs))
        return self

    def arm(self, device):
        """Resolve the plan against ``device`` and install the injector.

        Region names are resolved against the device's *current*
        allocations, so arm after workload setup and runtime creation
        (the lock table and clock are runtime allocations).  Returns the
        installed :class:`FaultInjector`.
        """
        injector = FaultInjector(self.specs, device.mem)
        device.fault_injector = injector
        return injector

    @staticmethod
    def disarm(device):
        """Remove any installed injector from ``device``."""
        device.fault_injector = None

    def __len__(self):
        return len(self.specs)

    def __repr__(self):
        return "FaultPlan(%r)" % (self.specs,)


class _Armed:
    """One spec resolved to address ranges, with its occurrence counters."""

    __slots__ = ("spec", "ranges", "seen", "fired")

    def __init__(self, spec, ranges):
        self.spec = spec
        self.ranges = ranges  # list of (lo, hi) half-open; None = any addr
        self.seen = 0
        self.fired = 0

    def matches_addr(self, addr):
        ranges = self.ranges
        if ranges is None:
            return True
        for lo, hi in ranges:
            if lo <= addr < hi:
                return True
        return False

    def take(self):
        """Advance the occurrence counter; True when inside the window."""
        index = self.seen
        self.seen = index + 1
        spec = self.spec
        if spec.skip <= index < spec.skip + spec.count:
            self.fired += 1
            return True
        return False


class FaultInjector:
    """The armed form of a plan: per-category fault lists plus counters.

    A probe of every thread context (the ``read``/``write``/``atomic``
    seams) and consulted by the scheduler's issue loop on every warp
    selection.  All methods are deterministic functions of the simulated
    operation order, so armed runs replay bit-identically.
    """

    def __init__(self, specs, mem):
        self._reads = []
        self._writes = []
        self._atomics = []
        self._stalls = []
        #: chronological log of fired faults (dicts; test/CLI evidence)
        self.fired = []
        #: simulated-cycle witness of the issuing lane, kept current by
        #: the write/atomic seams (detection-latency zero point)
        self.now = 0
        for spec in specs:
            ranges = self._resolve(spec, mem)
            armed = _Armed(spec, ranges)
            if spec.kind == "stale_read":
                self._reads.append(armed)
            elif spec.kind in ("torn_write", "dropped_write", "lost_lock_release"):
                self._writes.append(armed)
            elif spec.kind in ("cas_fail", "clock_skew"):
                self._atomics.append(armed)
            else:  # warp_stall
                self._stalls.append(armed)
        # previous-value shadow for stale reads, maintained only when a
        # stale_read spec is armed (the write seam records the old word)
        self._track_prev = bool(self._reads)
        self._prev = {}
        self._decisions = {}  # sm index -> issue decisions seen

    @staticmethod
    def _resolve(spec, mem):
        if spec.kind == "warp_stall":
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

    def _log(self, armed, tid, addr, detail):
        self.fired.append({
            "kind": armed.spec.kind,
            "tid": tid,
            "addr": addr,
            "detail": detail,
        })

    # ------------------------------------------------------------------
    # Thread-context probe seams
    # ------------------------------------------------------------------
    def read(self, tc, addr, value):
        """Possibly replace a read value (stale_read)."""
        tid = tc.tid
        for armed in self._reads:
            spec = armed.spec
            if spec.tid is not None and spec.tid != tid:
                continue
            if not armed.matches_addr(addr):
                continue
            stale = self._prev.get(addr)
            if stale is None or stale == value:
                continue  # no older value to serve; not a fault occurrence
            if armed.take():
                self._log(armed, tid, addr, "served %d instead of %d" % (stale, value))
                return stale
        return value

    def write(self, tc, addr, phase, value, old):
        """Possibly alter or drop (``None``) a write; also maintains the
        stale-read shadow."""
        self.now = tc.cycles_total
        if self._track_prev:
            self._prev[addr] = old
        tid = tc.tid
        for armed in self._writes:
            spec = armed.spec
            if spec.tid is not None and spec.tid != tid:
                continue
            if not armed.matches_addr(addr):
                continue
            if spec.kind == "lost_lock_release":
                # only a *release* (store of an unlocked/zero-lock-bit word)
                # can be lost; acquisitions go through atomics anyway
                if value & 1:
                    continue
                if armed.take():
                    self._log(armed, tid, addr, "release of %d dropped" % value)
                    return None
            elif armed.take():
                if spec.kind == "dropped_write":
                    self._log(armed, tid, addr, "store of %d dropped" % value)
                    return None
                mask = spec.param if spec.param is not None else 0xFFFF
                torn = (value & mask) | (old & ~mask)
                self._log(
                    armed, tid, addr,
                    "store of %d torn to %d (mask 0x%x)" % (value, torn, mask),
                )
                return torn
        return value

    def atomic(self, tc, op, addr, phase, a, b):
        """``cas_fail``: a CAS (``op`` ``cas``) or lock ``atomicOr``
        (``or``) that would have succeeded reports a conflicting value and
        performs no mutation.  ``clock_skew``: an ``atomicAdd`` skips its
        increment and returns the stale value.  Returns the faked result,
        or None to perform the real atomic."""
        self.now = tc.cycles_total
        kind = _ATOMIC_FAULTS.get(op)
        if kind is None:
            return None
        tid = tc.tid
        old = tc.mem.words[addr]
        for armed in self._atomics:
            spec = armed.spec
            if spec.kind != kind:
                continue
            if spec.tid is not None and spec.tid != tid:
                continue
            if not armed.matches_addr(addr):
                continue
            if op == "cas":
                if old == a and armed.take():
                    self._log(armed, tid, addr, "CAS(%d -> %d) spuriously failed"
                              % (a, b))
                    return old + 1
            elif op == "or":
                if not old & a and armed.take():
                    self._log(armed, tid, addr,
                              "atomicOr(0x%x) spuriously failed" % a)
                    return old | a
            elif armed.take():
                self._log(armed, tid, addr, "tick by %d skipped (stale %d)"
                          % (a, old))
                return old
        return None

    # ------------------------------------------------------------------
    # Scheduler hook
    # ------------------------------------------------------------------
    def select_index(self, sm_index, warps, index):
        """Possibly redirect an issue decision away from a stalled warp.

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
                    armed.fired += 1
                    self._log(armed, -1, -1,
                              "sm %d decision %d: warp %d stalled, issued %d"
                              % (sm_index, seen, spec.warp,
                                 warps[redirect].warp_id))
                    return redirect
        return index

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def fired_count(self, kind=None):
        return sum(1 for f in self.fired if kind is None or f["kind"] == kind)

    def summary(self):
        """One line per armed spec with its fired count."""
        lines = []
        for group in (self._reads, self._writes, self._atomics, self._stalls):
            for armed in group:
                lines.append("%r: fired %d" % (armed.spec, armed.fired))
        return "\n".join(lines)
