"""Lockstep warp execution and the per-step cost model.

A :class:`Warp` owns up to ``warp_size`` lanes, each a Python generator
created from the kernel function.  One call to :meth:`Warp.step` resumes
every active lane exactly once — the simulator's definition of a SIMT warp
step.  Because each lane performs at most one globally-visible operation per
resumption (enforced under ``strict_lockstep``), all step-*k* operations of a
warp happen before any step-*k+1* operation, giving faithful lockstep
semantics: two lanes acquiring locks in reverse orders really do fail
simultaneously, which is the livelock the paper's encounter-time lock-sorting
eliminates.

After resuming the lanes, the warp folds the step's operation records into a
throughput cost (DESIGN.md section 4):

* records are grouped by (operation kind, phase) — distinct groups model
  divergent instructions and each costs one instruction issue;
* read/write groups additionally cost one memory transaction per touched
  ``line_words``-sized line (the coalescing model);
* atomic groups serialize on same-address contention;
* fences and native compute have flat costs.
"""

from repro.gpu.errors import GpuError
from repro.gpu.events import OpKind
from repro.gpu.soa import LaneArrays, distinct_lines, max_bank_conflicts, max_multiplicity
from repro.gpu.steppers import LaneStepper
from repro.gpu.thread import ThreadCtx

# cost-fold loop constants (module-level loads are cheaper than attributes)
_READ = OpKind.READ
_WRITE = OpKind.WRITE
_ATOMIC = OpKind.ATOMIC
_FENCE = OpKind.FENCE
_L2_READ = OpKind.L2_READ
_SMEM = OpKind.SMEM

#: The one sentence every lockstep-protocol violation cites, so kernel
#: authors meet identical wording whether they passed a non-generator
#: kernel or performed several globally-visible operations in one
#: resumption (tests/gpu/test_warp_lockstep.py asserts all raise sites
#: share it).
LOCKSTEP_PROTOCOL_HINT = (
    "the lockstep protocol requires exactly one globally-visible operation "
    "per resumption, with a yield at every warp-step boundary"
)


class Lane:
    """One SIMT lane: a kernel generator plus its thread context.

    ``resume`` is what the warp calls in this lane's turn: ``gen_next``,
    the generator's bound ``__next__``, or the ``step`` of the lane stepper
    (:mod:`repro.gpu.steppers`) the generator last yielded, which is then
    also held as ``stepper``.  Swapping that one attribute is all it costs
    to move a lane into or out of a poll loop.
    """

    __slots__ = ("gen_next", "tc", "done", "resume", "stepper")

    def __init__(self, gen, tc):
        self.gen_next = self.resume = gen.__next__
        self.tc = tc
        self.done = False
        self.stepper = None


class Warp:
    """A lockstep group of lanes.

    Per-step operation records are grouped *incrementally*: ``step_groups``
    maps each ``(kind, phase)`` issue group to its address list, and
    ``step_kind``/``step_phase``/``step_cur`` cache the most recent group so
    that runs of identically-tagged records — the dominant pattern, since
    lanes record in lane order and lockstep lanes mostly issue the same
    instruction — append with two identity compares and no dict lookup or
    tuple allocation.  The cost fold then iterates the already-built groups
    instead of re-grouping a record list.
    """

    __slots__ = (
        "warp_id",
        "block",
        "config",
        "lanes",
        "active",
        "live",
        "step_nops",
        "step_kind",
        "step_phase",
        "step_cur",
        "step_groups",
        "step_work",
        "step_extra",
        "step_mem_txns",
        "waiting",
        "reconv_gen",
        "shared",
        "steps",
        # quiet-step state (see step()): the global word array, how many
        # live lanes are fast steppers about to issue a pure L2 probe, a
        # cache of what they watch (None after any lane started or stopped
        # polling), and how many whole-warp steps were answered without
        # visiting a lane
        "words",
        "polling",
        "watch",
        "quiet_steps",
        # cost-model constants hoisted at construction time
        "_strict",
        "_line_words",
        "_smem_banks",
        "_issue_cost",
        "_mem_txn_cost",
        "_mem_pipeline_cost",
        "_atomic_cost",
        "_l2_read_cost",
        "_smem_cost",
        "_fence_cost",
    )

    def __init__(self, warp_id, block, config, words=()):
        self.warp_id = warp_id
        self.block = block
        self.config = config
        self.lanes = []
        self.active = []
        self.live = 0
        self.step_nops = 0
        self.step_kind = None
        self.step_phase = None
        self.step_cur = None
        self.step_groups = {}
        self.step_work = 0
        self.step_extra = 0
        self.step_mem_txns = 0
        self.waiting = {}
        self.reconv_gen = 0
        self.shared = {}
        self.steps = 0
        self.words = words
        self.polling = 0
        self.watch = None
        self.quiet_steps = 0
        costs = config.costs
        self._strict = config.strict_lockstep
        self._line_words = config.line_words
        self._smem_banks = config.smem_banks
        self._issue_cost = costs.issue_cost
        self._mem_txn_cost = costs.mem_txn_cost
        self._mem_pipeline_cost = costs.mem_pipeline_cost
        self._atomic_cost = costs.atomic_cost
        self._l2_read_cost = costs.l2_read_cost
        self._smem_cost = costs.smem_cost
        self._fence_cost = costs.fence_cost

    def add_lane(self, gen, tc):
        """Register a lane; called by the device during launch."""
        lane = Lane(gen, tc)
        self.lanes.append(lane)
        # retired lanes are dropped from ``active`` so long-lived
        # divergent warps don't re-scan them
        self.active.append(lane)
        self.live += 1

    @property
    def lane_ctxs(self):
        """Thread contexts of all lanes (used by warp-level runtimes)."""
        return [lane.tc for lane in self.lanes]

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    def step(self):
        """Resume every active lane once.

        Returns ``(cost, finished, mem_txns)``: the step's throughput cost,
        how many lanes retired, and the memory transactions it generated
        (returned directly so the scheduler's issue loop does not need an
        attribute load per step).

        A lane that yields a :class:`~repro.gpu.steppers.LaneStepper` is
        driven through ``stepper.step()`` from the next step on, in its
        ordinary lane-order turn, until the stepper hands it back.

        *Quiet steps.*  When every live lane is a fast stepper whose next
        step is a pure L2 probe, and every distinct watched word still has
        its mask bits set, no lane is visited: nothing in the warp can
        write this step, so one check per distinct word equals the
        in-order probes, all of which fail.  The step costs one issue plus
        one L2 read per distinct phase, generates no memory transaction,
        and each stepper charges the probe's latency when it next settles
        (it reads ``quiet_steps``).
        """
        polling = self.polling
        if polling and polling == self.live:
            watch = self.watch
            if watch is None:
                watch = self.watch = self._build_watch()
            words = self.words
            for addr, mask in watch[0]:
                if not words[addr] & mask:
                    break
            else:
                self.quiet_steps += 1
                self.steps += 1
                return watch[1], 0, 0
        self.step_nops = 0
        # a None kind can never match a recorded kind, so resetting it alone
        # invalidates the cached (kind, phase, bucket) triple
        self.step_kind = None
        self.step_groups.clear()
        self.step_work = 0
        self.step_extra = 0
        self.step_mem_txns = 0
        compute_lanes = 0
        strict = self._strict
        finished = 0
        prev_nops = 0
        for lane in self.active:
            # ops-per-resumption is derived from the warp-level record count
            # (step_nops) rather than a per-lane counter: every record-path
            # op bumps step_nops exactly once, so the delta across the call
            # is the lane's op count without a per-lane store + per-op
            # increment.  (Load, then call: CPython specializes a slot's
            # attribute load but not the method-call form ``lane.resume()``.)
            resume = lane.resume
            try:
                stepper = resume()
            except StopIteration:
                tc = lane.tc
                lane.done = True
                self.live -= 1
                finished += 1
                self.waiting.pop(tc.lane_id, None)
                nops = self.step_nops
                ops = nops - prev_nops
                prev_nops = nops
                if strict and ops > 1:
                    raise GpuError(
                        "lane %d of warp %d performed %d globally-visible "
                        "operations in one step; %s"
                        % (tc.lane_id, self.warp_id, ops, LOCKSTEP_PROTOCOL_HINT)
                    )
                continue
            if stepper is not None:
                if not isinstance(stepper, LaneStepper):
                    raise GpuError(
                        "lane %d of warp %d yielded %r; a kernel yields None "
                        "or a lane stepper: %s"
                        % (lane.tc.lane_id, self.warp_id, stepper,
                           LOCKSTEP_PROTOCOL_HINT)
                    )
                stepper.bind(lane)
            nops = self.step_nops
            ops = nops - prev_nops
            prev_nops = nops
            if ops == 0:
                # The final StopIteration resumption is a simulator artifact,
                # not an instruction; only live op-less resumptions count as
                # compute issues.
                compute_lanes += 1
            elif strict and ops > 1:
                raise GpuError(
                    "lane %d of warp %d performed %d globally-visible "
                    "operations in one step; %s"
                    % (lane.tc.lane_id, self.warp_id, ops, LOCKSTEP_PROTOCOL_HINT)
                )
        if finished:
            self.active = [lane for lane in self.active if not lane.done]
        if self.waiting:
            self._maybe_reconverge()
        self.steps += 1
        # Cost fold, inlined from _step_cost (one call per simulated step
        # adds up): lockstep lanes overwhelmingly issue the same
        # instruction, so the records usually form exactly one issue group
        # whose kind and address array are still cached on the warp — that
        # case skips the group-table walk, and an L2 metadata probe (the
        # STM runtimes' spin polls, the single most common instruction in
        # every contended run) resolves to a flat cost without touching
        # the address column at all.
        cost = self.step_work + self.step_extra
        if not self.step_nops:
            if compute_lanes and not cost:
                # A pure bookkeeping step still occupies an issue slot.
                cost = self._issue_cost
            return cost, finished, self.step_mem_txns
        groups = self.step_groups
        if len(groups) == 1:
            kind = self.step_kind
            if kind is _L2_READ:
                return (
                    cost + self._issue_cost + self._l2_read_cost,
                    finished,
                    self.step_mem_txns,
                )
            return (
                cost + self._issue_cost + self._group_cost(kind, self.step_cur),
                finished,
                self.step_mem_txns,
            )
        issue_cost = self._issue_cost
        group_cost = self._group_cost
        for tag, addrs in groups.items():
            cost += issue_cost + group_cost(tag[0], addrs)
        return cost, finished, self.step_mem_txns

    def _maybe_reconverge(self):
        """Release a reconvergence point once all live lanes reached it."""
        waiting = self.waiting
        if len(waiting) < self.live:
            return
        labels = set(waiting.values())
        if len(labels) == 1:
            self.reconv_gen += 1
            waiting.clear()

    def _group_cost(self, kind, addrs):
        """Cycles charged by one issue group; accumulates ``step_mem_txns``.

        The address array is the struct-of-arrays half of the fold: a flat
        pending-address column per group, reduced in batch (all-same spin
        probes short-circuit on two compares; wider arrays take the set/dict
        reductions in :mod:`repro.gpu.soa`).
        """
        if kind is _L2_READ:
            # L2 hit: flat cost per instruction, no DRAM transaction
            return self._l2_read_cost
        if kind is _READ or kind is _WRITE:
            n = len(addrs)
            if n == 1:
                # single access: one line, full latency
                self.step_mem_txns += 1
                return self._mem_txn_cost
            first = addrs[0]
            if first == addrs[-1] and addrs.count(first) == n:
                lines = 1
            else:
                lines = distinct_lines(addrs, self._line_words)
            self.step_mem_txns += lines
            # first line pays full latency; the rest pipeline behind it
            return self._mem_txn_cost + self._mem_pipeline_cost * (lines - 1)
        if kind is _ATOMIC:
            n = len(addrs)
            if n == 1:
                self.step_mem_txns += 1
                return self._atomic_cost
            first = addrs[0]
            if first == addrs[-1] and addrs.count(first) == n:
                # whole-warp pileup on one word: fully serialized
                self.step_mem_txns += 1
                return self._atomic_cost * n
            deepest, distinct = max_multiplicity(addrs)
            self.step_mem_txns += distinct
            if deepest == 1:
                # all-distinct addresses: no same-address serialization
                return self._atomic_cost
            return self._atomic_cost * deepest
        if kind is _SMEM:
            # bank conflicts: same-bank accesses in one instruction
            # serialize; conflict-free warps pay one shared-memory cycle
            if len(addrs) == 1:
                return self._smem_cost
            return self._smem_cost * max_bank_conflicts(addrs, self._smem_banks)
        if kind is _FENCE:
            return self._fence_cost
        return 0

    def _build_watch(self):
        """``(distinct (addr, mask) pairs, quiet-step cost)`` of a warp
        whose live lanes are all polling: one issue plus one L2 read per
        distinct phase, the fold of one L2 group per phase."""
        steppers = [lane.stepper for lane in self.active]
        pairs = list({(stepper.addr, stepper.mask) for stepper in steppers})
        phases = len({stepper.phase for stepper in steppers})
        return pairs, phases * (self._issue_cost + self._l2_read_cost)

    def settle_polling(self):
        """Settle the deferred charges of every stepper-driven lane and
        return ``{watched address: [lane ids]}`` — what each such lane is
        polling, for diagnostics."""
        polling = {}
        for lane in self.active:
            stepper = lane.stepper
            if stepper is not None:
                stepper.settle()
                polling.setdefault(stepper.addr, []).append(lane.tc.lane_id)
        return polling

    def lane_snapshot(self):
        """Struct-of-arrays view of this warp's per-lane state
        (:class:`repro.gpu.soa.LaneArrays`), materialized on demand."""
        self.settle_polling()
        return LaneArrays(self)


class BlockState:
    """Shared state of one thread block: its warps, barrier, scratch dict."""

    __slots__ = (
        "index",
        "warps",
        "block_threads",
        "live_lanes",
        "barrier_gen",
        "barrier_waiting",
        "shared",
        "smem",
    )

    def __init__(self, index, block_threads=0, smem_words=0):
        self.index = index
        self.warps = []
        self.block_threads = block_threads
        self.live_lanes = 0
        self.barrier_gen = 0
        self.barrier_waiting = 0
        self.shared = {}
        # on-chip shared memory (CUDA __shared__), sized at launch
        self.smem = [0] * smem_words

    def maybe_release_barrier(self):
        """Open the block barrier once every live lane arrived."""
        if self.live_lanes and self.barrier_waiting >= self.live_lanes:
            self.barrier_gen += 1
            self.barrier_waiting = 0

    def lanes_finished(self, count):
        """Bookkeeping when ``count`` lanes of this block retire.

        One barrier check after the batch is equivalent to checking after
        every decrement: a waiting lane is live and unfinishable, so
        ``barrier_waiting <= live_lanes`` holds before and after the batch,
        and any intermediate release condition still holds at the end.
        """
        self.live_lanes -= count
        if self.barrier_waiting:
            self.maybe_release_barrier()


def build_block(block, first_tid, mem, config, kernel, args, attach,
                ctx_factory=None):
    """Construct the warps and lane generators of thread block ``block``.

    Each warp joins ``block.warps`` before its lanes are built, so a
    launch that fails half-way through building still reaches every lane
    it made when it dismantles its blocks.  ``ctx_factory`` substitutes
    the thread-context constructor (same signature as :class:`ThreadCtx`);
    the launcher passes one that builds a
    :class:`~repro.gpu.thread.ProbedThreadCtx` when an instrument is
    attached, so the bare hot paths stay uninstrumented.
    """
    make_ctx = ThreadCtx if ctx_factory is None else ctx_factory
    index = block.index
    block_threads = block.block_threads
    warp_size = config.warp_size
    num_warps = (block_threads + warp_size - 1) // warp_size
    for warp_idx in range(num_warps):
        warp = Warp(index * num_warps + warp_idx, block, config, mem.words)
        block.warps.append(warp)
        lanes_in_warp = min(warp_size, block_threads - warp_idx * warp_size)
        for lane_id in range(lanes_in_warp):
            tid = first_tid + warp_idx * warp_size + lane_id
            tc = make_ctx(tid, lane_id, warp, block, mem, config)
            if attach is not None:
                attach(tc)
            gen = kernel(tc, *args)
            if not hasattr(gen, "send"):
                raise GpuError(
                    "kernel %r is not a generator function; %s"
                    % (getattr(kernel, "__name__", kernel), LOCKSTEP_PROTOCOL_HINT)
                )
            warp.add_lane(gen, tc)
        block.live_lanes += lanes_in_warp
