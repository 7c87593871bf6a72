"""Per-lane thread context: the handle a kernel uses to touch the device.

A kernel is a generator function ``kernel(tc, *args)``.  Every globally
visible operation goes through the :class:`ThreadCtx` methods below and must
be followed by a ``yield`` — the warp-step boundary.  This is the simulator's
contract for lockstep SIMT execution: all active lanes of a warp perform
their step-*k* operations before any lane performs its step-*k+1* operation,
which is exactly the property that produces the intra-warp livelocks and
deadlocks of the paper's section 2.2.

The context also performs two kinds of cycle accounting:

* it appends an operation record to the warp's current step buffer, from
  which the warp computes the throughput cost (divergence groups, coalesced
  memory transactions, serialized atomics) that drives kernel time; and
* it charges a per-lane *latency* cost to the current phase, which feeds the
  paper's Figure 5 single-thread execution-time breakdown.  Costs charged
  inside a transaction are kept in a window so that, on abort, they can be
  reclassified to the "aborted" phase like the paper does.

Instruments — the telemetry timeline, the STM sanitizer, fault injectors,
multi-device link accounting — never subclass the bare context, whose hot
paths are inlined by hand.  They are *probes* of :class:`ProbedThreadCtx`,
which shows every charge, global operation and fence/transaction-window
event to an ordered tuple of them; any combination can observe one launch.
"""

from repro.common.stats import Counters, PhaseCycles
from repro.gpu.errors import MemoryFault
from repro.gpu.events import OpKind, Phase

# hot-path aliases: one global load instead of a class-attribute lookup per
# recorded operation
_READ = OpKind.READ
_WRITE = OpKind.WRITE
_L2_READ = OpKind.L2_READ
_ATOMIC = OpKind.ATOMIC


class ThreadCtx:
    """Execution context of one simulated GPU thread (one warp lane)."""

    #: no instrument observes a bare context (see :class:`ProbedThreadCtx`)
    probes = ()

    __slots__ = (
        "tid",
        "lane_id",
        "warp",
        "block",
        "mem",
        "config",
        "phase_cycles",
        "counters",
        "stm",
        "cycles_total",
        "cycles_in_tx",
        "_tx_phase_base",
        "_tx_total_base",
        "_costs",
        "_check_bounds",
        "_phase_map",
        "_words",
        "_words_len",
        "_mem_latency",
        "_l2_read_latency",
        "_atomic_latency",
        "_smem_latency",
        "_fence_latency",
        "_local_meta_cost",
    )

    def __init__(self, tid, lane_id, warp, block, mem, config):
        self.tid = tid
        self.lane_id = lane_id
        self.warp = warp
        self.block = block
        self.mem = mem
        self.config = config
        self.phase_cycles = PhaseCycles()
        self.counters = Counters()
        self.stm = None  # attached by the TM runtime, if any
        self.cycles_total = 0
        self.cycles_in_tx = 0
        self._tx_phase_base = None
        self._tx_total_base = 0
        costs = config.costs
        self._costs = costs
        self._check_bounds = config.check_bounds
        # hot-path aliases: the phase dict, bound memory accessors and
        # per-op latency constants
        self._phase_map = self.phase_cycles.cycles
        # the flat word array itself: GlobalMemory only ever mutates it in
        # place (alloc extends), so reads/writes can index it directly.
        # Allocation is host-side and happens before launch, so the length
        # is constant for the lifetime of this (per-launch) context and the
        # bounds checks can compare against a cached int.
        self._words = mem.words
        self._words_len = len(mem.words)
        self._mem_latency = costs.mem_latency
        self._l2_read_latency = costs.l2_read_latency
        self._atomic_latency = costs.atomic_latency
        self._smem_latency = costs.smem_latency
        self._fence_latency = costs.fence_latency
        self._local_meta_cost = costs.local_meta_cost

    # ------------------------------------------------------------------
    # Cost accounting
    # ------------------------------------------------------------------
    def charge(self, phase, cycles):
        """Attribute ``cycles`` of lane-latency to ``phase``."""
        phase_map = self._phase_map
        if phase in phase_map:
            phase_map[phase] += cycles
        else:
            phase_map[phase] = cycles
        self.cycles_total += cycles

    def tx_window_begin(self):
        """Start attributing costs to the current transaction attempt.

        The window is a *snapshot*, not a mirror: instead of doubling every
        charge into a per-window dict (two extra dict operations on the
        hottest path in the simulator), remember the per-phase totals and
        the cycle counter here, and let commit/abort recover the attempt's
        costs as batch deltas against the snapshot.  Equivalent because
        every latency charge goes through the phase map, so "charged while
        the window was open" and "phase-map delta since the snapshot" are
        the same set of cycles.
        """
        self._tx_phase_base = dict(self._phase_map)
        self._tx_total_base = self.cycles_total

    def tx_window_commit(self):
        """The attempt committed: keep its costs where they were charged."""
        if self._tx_phase_base is not None:
            self.cycles_in_tx += self.cycles_total - self._tx_total_base
            self._tx_phase_base = None

    def tx_window_abort(self):
        """The attempt aborted: reclassify its costs to the aborted phase."""
        base = self._tx_phase_base
        if base is None:
            return
        self._tx_phase_base = None
        self.cycles_in_tx += self.cycles_total - self._tx_total_base
        phase_map = self._phase_map
        total = 0
        # New phases can only appear during the window, so iterating the
        # current map covers every phase with a non-zero delta; values are
        # rolled back in place (no key insertion mid-iteration).
        for phase, cycles in phase_map.items():
            delta = cycles - base.get(phase, 0)
            if delta:
                phase_map[phase] = cycles - delta
                total += delta
        if total:
            if Phase.ABORTED in phase_map:
                phase_map[Phase.ABORTED] += total
            else:
                phase_map[Phase.ABORTED] = total

    def _account(self, kind, addr, phase, cycles):
        """Record one operation and charge its latency in a single call.

        Appends ``addr`` to the warp's ``(kind, phase)`` issue group, from
        which the warp folds the step's cost, then charges ``cycles`` as
        :meth:`charge` does, inlined — every globally-visible operation
        funnels through here, so one call frame instead of two is a
        measurable win.
        """
        warp = self.warp
        warp.step_nops += 1
        if kind is warp.step_kind and phase is warp.step_phase:
            # same issue group as the previous record (the dominant case):
            # append to the cached bucket, no dict lookup, no tuple
            warp.step_cur.append(addr)
        else:
            groups = warp.step_groups
            tag = (kind, phase)
            bucket = groups.get(tag)
            if bucket is None:
                groups[tag] = bucket = [addr]
            else:
                bucket.append(addr)
            warp.step_kind = kind
            warp.step_phase = phase
            warp.step_cur = bucket
        phase_map = self._phase_map
        if phase in phase_map:
            phase_map[phase] += cycles
        else:
            phase_map[phase] = cycles
        self.cycles_total += cycles

    # ------------------------------------------------------------------
    # Globally-visible operations (each must be followed by a yield)
    # ------------------------------------------------------------------
    def gread(self, addr, phase=Phase.NATIVE):
        """Global memory read."""
        words = self._words
        if self._check_bounds and not 0 <= addr < self._words_len:
            self.mem.check(addr)  # raises with region diagnostics
        warp = self.warp
        warp.step_nops += 1
        if _READ is warp.step_kind and phase is warp.step_phase:
            warp.step_cur.append(addr)
        else:
            groups = warp.step_groups
            tag = (_READ, phase)
            bucket = groups.get(tag)
            if bucket is None:
                groups[tag] = bucket = [addr]
            else:
                bucket.append(addr)
            warp.step_kind = _READ
            warp.step_phase = phase
            warp.step_cur = bucket
        cycles = self._mem_latency
        phase_map = self._phase_map
        if phase in phase_map:
            phase_map[phase] += cycles
        else:
            phase_map[phase] = cycles
        self.cycles_total += cycles
        return words[addr]

    def gread_l2(self, addr, phase=Phase.NATIVE):
        """Global memory read served from the L2 cache.

        Used for the STM's global metadata (version locks, sequence locks,
        spin polls): the paper keeps global metadata L2-cached (section
        4.1), so these reads are coherent device-wide but cost an L2 hit
        rather than a DRAM transaction.
        """
        words = self._words
        if self._check_bounds and not 0 <= addr < self._words_len:
            self.mem.check(addr)  # raises with region diagnostics
        warp = self.warp
        warp.step_nops += 1
        if _L2_READ is warp.step_kind and phase is warp.step_phase:
            # joining an existing L2 group: the address is not recorded —
            # the L2 cost fold is flat per group (no coalescing over the
            # address column), so only the group's existence matters
            pass
        else:
            groups = warp.step_groups
            tag = (_L2_READ, phase)
            bucket = groups.get(tag)
            if bucket is None:
                groups[tag] = bucket = [addr]
            else:
                bucket.append(addr)
            warp.step_kind = _L2_READ
            warp.step_phase = phase
            warp.step_cur = bucket
        cycles = self._l2_read_latency
        phase_map = self._phase_map
        if phase in phase_map:
            phase_map[phase] += cycles
        else:
            phase_map[phase] = cycles
        self.cycles_total += cycles
        return words[addr]

    def gwrite(self, addr, value, phase=Phase.NATIVE):
        """Global memory write."""
        words = self._words
        if self._check_bounds and not 0 <= addr < self._words_len:
            self.mem.check(addr)  # raises with region diagnostics
        warp = self.warp
        warp.step_nops += 1
        if _WRITE is warp.step_kind and phase is warp.step_phase:
            warp.step_cur.append(addr)
        else:
            groups = warp.step_groups
            tag = (_WRITE, phase)
            bucket = groups.get(tag)
            if bucket is None:
                groups[tag] = bucket = [addr]
            else:
                bucket.append(addr)
            warp.step_kind = _WRITE
            warp.step_phase = phase
            warp.step_cur = bucket
        cycles = self._mem_latency
        phase_map = self._phase_map
        if phase in phase_map:
            phase_map[phase] += cycles
        else:
            phase_map[phase] = cycles
        self.cycles_total += cycles
        words[addr] = value

    def atomic_cas(self, addr, expected, new, phase=Phase.NATIVE):
        """Atomic compare-and-swap; returns the old value.

        Inlined like the loads and stores above (``_account`` plus
        ``GlobalMemory.atomic_cas``): lock acquisition — the spinlock
        baselines' every hand-over, EGPGV's encounter-time locks, the
        sequence-lock commit — is a CAS per contending lane per attempt.
        """
        words = self._words
        if self._check_bounds and not 0 <= addr < self._words_len:
            self.mem.check(addr)  # raises with region diagnostics
        warp = self.warp
        warp.step_nops += 1
        if _ATOMIC is warp.step_kind and phase is warp.step_phase:
            warp.step_cur.append(addr)
        else:
            groups = warp.step_groups
            tag = (_ATOMIC, phase)
            bucket = groups.get(tag)
            if bucket is None:
                groups[tag] = bucket = [addr]
            else:
                bucket.append(addr)
            warp.step_kind = _ATOMIC
            warp.step_phase = phase
            warp.step_cur = bucket
        cycles = self._atomic_latency
        phase_map = self._phase_map
        if phase in phase_map:
            phase_map[phase] += cycles
        else:
            phase_map[phase] = cycles
        self.cycles_total += cycles
        old = words[addr]
        if old == expected:
            words[addr] = new
        return old

    def atomic_or(self, addr, value, phase=Phase.NATIVE):
        """Atomic bitwise-or; returns the old value (Algorithm 3 line 39)."""
        if self._check_bounds and not 0 <= addr < self._words_len:
            self.mem.check(addr)  # raises with region diagnostics
        self._account(OpKind.ATOMIC, addr, phase, self._atomic_latency)
        return self.mem.atomic_or(addr, value)

    def atomic_add(self, addr, value, phase=Phase.NATIVE):
        """Atomic add; returns the old value."""
        if self._check_bounds and not 0 <= addr < self._words_len:
            self.mem.check(addr)  # raises with region diagnostics
        self._account(OpKind.ATOMIC, addr, phase, self._atomic_latency)
        return self.mem.atomic_add(addr, value)

    def atomic_inc(self, addr, phase=Phase.NATIVE):
        """Atomic increment; returns the old value (Algorithm 3 line 41)."""
        return self.atomic_add(addr, 1, phase)

    def smem_read(self, offset, phase=Phase.NATIVE):
        """Read a word of the block's on-chip shared memory.

        Shared memory is a per-block scratchpad (CUDA ``__shared__``):
        near-register latency, no DRAM traffic, but same-bank accesses
        within one warp instruction serialize (bank conflicts).
        """
        smem = self.block.smem
        if not 0 <= offset < len(smem):
            raise MemoryFault(
                "shared-memory offset %d out of bounds (block has %d words; "
                "pass smem_words= to launch)" % (offset, len(smem))
            )
        self._account(OpKind.SMEM, offset, phase, self._smem_latency)
        return smem[offset]

    def smem_write(self, offset, value, phase=Phase.NATIVE):
        """Write a word of the block's on-chip shared memory."""
        smem = self.block.smem
        if not 0 <= offset < len(smem):
            raise MemoryFault(
                "shared-memory offset %d out of bounds (block has %d words; "
                "pass smem_words= to launch)" % (offset, len(smem))
            )
        self._account(OpKind.SMEM, offset, phase, self._smem_latency)
        smem[offset] = value

    def fence(self, phase=Phase.NATIVE):
        """CUDA ``threadfence``: ordering is implicit in the simulator's
        sequentially-consistent interleaving, but the cost is still charged so
        the overhead breakdown accounts for it."""
        self._account(OpKind.FENCE, -1, phase, self._fence_latency)

    def scattered_meta_ops(self, count=1, phase=Phase.BUFFERING):
        """``count`` uncoalesced metadata accesses: each one is a full
        memory transaction (latency, SM occupancy, and DRAM bandwidth).

        This is what transaction bookkeeping costs *without* the paper's
        coalesced read-/write-set organization — the ablation's other arm.
        """
        costs = self._costs
        self.charge(phase, costs.mem_latency * count)
        self.warp.step_extra += costs.mem_txn_cost * count
        self.warp.step_mem_txns += count

    def local_op(self, phase=Phase.BUFFERING, count=1):
        """Charge ``count`` local-metadata operations (read-/write-set
        bookkeeping).  Local metadata is cached (paper section 4.1), so this
        does not create a memory transaction record, only cheap cycles."""
        # inlined charge(): local_op is on the STM bookkeeping hot path
        cycles = self._local_meta_cost * count
        phase_map = self._phase_map
        if phase in phase_map:
            phase_map[phase] += cycles
        else:
            phase_map[phase] = cycles
        self.cycles_total += cycles

    def work(self, cycles, phase=Phase.NATIVE):
        """Model ``cycles`` of native (non-memory) computation.

        Lanes of one warp compute in parallel, so the warp-step cost is the
        maximum across lanes, while each lane's own breakdown is charged the
        full amount.
        """
        # inlined charge(): work() is on the compute-kernel hot path
        phase_map = self._phase_map
        if phase in phase_map:
            phase_map[phase] += cycles
        else:
            phase_map[phase] = cycles
        self.cycles_total += cycles
        warp = self.warp
        if cycles > warp.step_work:
            warp.step_work = cycles

    # ------------------------------------------------------------------
    # Warp/block coordination
    # ------------------------------------------------------------------
    def reconverge(self, label):
        """Wait until every unfinished lane of this warp reaches ``label``.

        Models the SIMT reconvergence point after divergent control flow.  A
        lane that never reaches the point (e.g. a spinning loser of the
        Algorithm 1 scheme #1 spinlock) deadlocks the warp, which the
        watchdog turns into a ProgressError.
        """
        warp = self.warp
        generation = warp.reconv_gen
        warp.waiting[self.lane_id] = label
        while warp.reconv_gen == generation:
            yield

    def syncthreads(self):
        """Block-wide barrier (CUDA ``__syncthreads``)."""
        block = self.block
        generation = block.barrier_gen
        block.barrier_waiting += 1
        while block.barrier_gen == generation:
            yield


def _each(hooks):
    def each(*args):
        for hook in hooks:
            hook(*args)
    return each


def _piped(hooks):
    def piped(tc, addr, value):
        for hook in hooks:
            value = hook(tc, addr, value)
        return value
    return piped


def _stored(hooks):
    def stored(tc, addr, phase, value, old):
        for hook in hooks:
            value = hook(tc, addr, phase, value, old)
            if value is None:
                return None
        return value
    return stored


def _first(hooks):
    def first(tc, op, addr, phase, a, b):
        for hook in hooks:
            faked = hook(tc, op, addr, phase, a, b)
            if faked is not None:
                return faked
        return None
    return first


#: the seams in ProbedThreadCtx slot order, each with how several probes
#: implementing it are chained
_SEAMS = (("charge", _each), ("before", _each), ("read", _piped),
          ("write", _stored), ("atomic", _first), ("event", _each))


def probe_seams(probes):
    """Each seam of ``probes`` as one optional callable: None when no probe
    implements it, that probe's own bound method when one does, a chain
    when several do (a per-op loop would tax every single-probe launch).
    Depends only on ``probes``: a launcher computes it once per distinct
    tuple."""
    seams = []
    for name, chain in _SEAMS:
        hooks = [getattr(probe, name) for probe in probes if hasattr(probe, name)]
        if not hooks:
            seams.append(None)
        else:
            seams.append(hooks[0] if len(hooks) == 1 else chain(tuple(hooks)))
    return tuple(seams)


class ProbedThreadCtx(ThreadCtx):
    """A :class:`ThreadCtx` shown to an ordered tuple of probes.

    A probe implements any subset of six seams (``seams`` is
    :func:`probe_seams` of ``probes``):

    * ``charge(phase, start, cycles)`` — every latency charge;
    * ``before(tc, kind, addr, phase)`` — before a global operation;
    * ``read(tc, addr, value) -> value`` — a global load's result;
    * ``write(tc, addr, phase, value, old) -> value`` — a global store
      (``None`` drops it);
    * ``atomic(tc, op, addr, phase, a, b) -> faked result or None`` — an
      atomic (``op`` is ``cas``/``or``/``add``/``sub``/``exch``; ``a, b``
      are ``expected, new`` for ``cas``, else ``value, None``); the first
      non-None result is returned without performing the atomic;
    * ``event(tc, name, phase)`` — ``fence``, and the transaction-window
      ``begin``/``commit``/``abort`` (``phase`` None).

    Each operation is written once — pre-op seam, bounds check,
    ``_account``, post-op seam — so a probe sees every operation by
    construction.  Probes observe the cost model without changing it: a
    probed launch whose probes fake nothing has the bare launch's cycles,
    steps and memory transactions.  Probe order is the launcher's: link,
    timeline, sanitizer, injector (last, because its intercepts
    short-circuit).
    """

    __slots__ = ("probes", "_on_charge", "_before", "_on_read", "_on_write",
                 "_on_atomic", "_on_event")

    def __init__(self, tid, lane_id, warp, block, mem, config, probes, seams):
        ThreadCtx.__init__(self, tid, lane_id, warp, block, mem, config)
        self.probes = probes
        (self._on_charge, self._before, self._on_read, self._on_write,
         self._on_atomic, self._on_event) = seams

    # ------------------------------------------------------------------
    # Cost accounting (the base bodies plus the charge seam)
    # ------------------------------------------------------------------
    def charge(self, phase, cycles):
        start = self.cycles_total
        phase_map = self._phase_map
        if phase in phase_map:
            phase_map[phase] += cycles
        else:
            phase_map[phase] = cycles
        self.cycles_total = start + cycles
        hook = self._on_charge
        if hook is not None:
            hook(phase, start, cycles)

    def _account(self, kind, addr, phase, cycles):
        warp = self.warp
        warp.step_nops += 1
        if kind is warp.step_kind and phase is warp.step_phase:
            warp.step_cur.append(addr)
        else:
            groups = warp.step_groups
            tag = (kind, phase)
            bucket = groups.get(tag)
            if bucket is None:
                groups[tag] = bucket = [addr]
            else:
                bucket.append(addr)
            warp.step_kind = kind
            warp.step_phase = phase
            warp.step_cur = bucket
        start = self.cycles_total
        phase_map = self._phase_map
        if phase in phase_map:
            phase_map[phase] += cycles
        else:
            phase_map[phase] = cycles
        self.cycles_total = start + cycles
        hook = self._on_charge
        if hook is not None:
            hook(phase, start, cycles)

    def local_op(self, phase=Phase.BUFFERING, count=1):
        cycles = self._local_meta_cost * count
        start = self.cycles_total
        phase_map = self._phase_map
        if phase in phase_map:
            phase_map[phase] += cycles
        else:
            phase_map[phase] = cycles
        self.cycles_total = start + cycles
        hook = self._on_charge
        if hook is not None:
            hook(phase, start, cycles)

    def work(self, cycles, phase=Phase.NATIVE):
        start = self.cycles_total
        phase_map = self._phase_map
        if phase in phase_map:
            phase_map[phase] += cycles
        else:
            phase_map[phase] = cycles
        self.cycles_total = start + cycles
        hook = self._on_charge
        if hook is not None:
            hook(phase, start, cycles)
        warp = self.warp
        if cycles > warp.step_work:
            warp.step_work = cycles

    # ------------------------------------------------------------------
    # Globally-visible operations
    # ------------------------------------------------------------------
    def gread(self, addr, phase=Phase.NATIVE):
        before = self._before
        if before is not None:
            before(self, _READ, addr, phase)
        if self._check_bounds and not 0 <= addr < self._words_len:
            self.mem.check(addr)
        self._account(_READ, addr, phase, self._mem_latency)
        value = self._words[addr]
        hook = self._on_read
        return value if hook is None else hook(self, addr, value)

    def gread_l2(self, addr, phase=Phase.NATIVE):
        before = self._before
        if before is not None:
            before(self, _L2_READ, addr, phase)
        if self._check_bounds and not 0 <= addr < self._words_len:
            self.mem.check(addr)
        self._account(_L2_READ, addr, phase, self._l2_read_latency)
        value = self._words[addr]
        hook = self._on_read
        return value if hook is None else hook(self, addr, value)

    def gwrite(self, addr, value, phase=Phase.NATIVE):
        before = self._before
        if before is not None:
            before(self, _WRITE, addr, phase)
        if self._check_bounds and not 0 <= addr < self._words_len:
            self.mem.check(addr)
        self._account(_WRITE, addr, phase, self._mem_latency)
        hook = self._on_write
        if hook is not None:
            value = hook(self, addr, phase, value, self._words[addr])
            if value is None:
                return
        self._words[addr] = value

    def atomic_cas(self, addr, expected, new, phase=Phase.NATIVE):
        before = self._before
        if before is not None:
            before(self, _ATOMIC, addr, phase)
        if self._check_bounds and not 0 <= addr < self._words_len:
            self.mem.check(addr)
        self._account(_ATOMIC, addr, phase, self._atomic_latency)
        hook = self._on_atomic
        if hook is not None:
            faked = hook(self, "cas", addr, phase, expected, new)
            if faked is not None:
                return faked
        words = self._words
        old = words[addr]
        if old == expected:
            words[addr] = new
        return old

    def _rmw(self, op, addr, value, phase, apply):
        """A read-modify-write atomic other than CAS; ``apply`` is the
        matching :class:`~repro.gpu.memory.GlobalMemory` method."""
        before = self._before
        if before is not None:
            before(self, _ATOMIC, addr, phase)
        if self._check_bounds and not 0 <= addr < self._words_len:
            self.mem.check(addr)
        self._account(_ATOMIC, addr, phase, self._atomic_latency)
        hook = self._on_atomic
        if hook is not None:
            faked = hook(self, op, addr, phase, value, None)
            if faked is not None:
                return faked
        return apply(addr, value)

    def atomic_or(self, addr, value, phase=Phase.NATIVE):
        return self._rmw("or", addr, value, phase, self.mem.atomic_or)

    def atomic_add(self, addr, value, phase=Phase.NATIVE):
        return self._rmw("add", addr, value, phase, self.mem.atomic_add)

    # ------------------------------------------------------------------
    # Fences and transaction windows
    # ------------------------------------------------------------------
    def fence(self, phase=Phase.NATIVE):
        ThreadCtx.fence(self, phase)
        hook = self._on_event
        if hook is not None:
            hook(self, "fence", phase)

    def tx_window_begin(self):
        ThreadCtx.tx_window_begin(self)
        hook = self._on_event
        if hook is not None:
            hook(self, "begin", None)

    def tx_window_commit(self):
        ThreadCtx.tx_window_commit(self)
        hook = self._on_event
        if hook is not None:
            hook(self, "commit", None)

    def tx_window_abort(self):
        ThreadCtx.tx_window_abort(self)
        hook = self._on_event
        if hook is not None:
            hook(self, "abort", None)
