"""Device scheduler: blocks onto SMs, policy-driven warp issue, watchdog.

The scheduling model mirrors how a Fermi-class GPU executes a kernel grid:

* thread blocks are distributed over the streaming multiprocessors and stay
  resident until all of their warps retire, bounded by the per-SM residency
  limits (``max_blocks_per_sm`` / ``max_warps_per_sm``);
* each SM issues its resident warps one at a time, the *selection* being
  delegated to a :class:`~repro.sched.policy.SchedulingPolicy` (fixed round
  robin by default; seeded-random, greedy-then-oldest and adversarial
  policies explore other interleavings of the same kernel);
* kernel time is the maximum SM time (SMs run in parallel).

Every launch — single- or multi-device, bare or instrumented — issues
through one loop, :meth:`Device._issue`.  Every launch can capture its
issue trace into a :class:`~repro.sched.trace.ScheduleTrace`
(``record_schedule=True``), from which a
:class:`~repro.sched.trace.ReplayPolicy` re-executes the identical schedule
— the record/replay substrate of the interleaving fuzzer
(:mod:`repro.sched.fuzz`).

A global watchdog bounds the total number of warp steps, checked after
every issued turn so a runaway kernel overshoots ``max_steps`` by at most
one turn quota; livelocked or deadlocked kernels — the very failure modes
the paper's section 2.2 catalogues — surface as
:class:`~repro.gpu.errors.ProgressError` with a diagnostic snapshot instead
of hanging the host.
"""

from collections import deque

from repro.gpu.config import GpuConfig
from repro.gpu.errors import LaunchError, LivelockError, ProgressError
from repro.gpu.kernel import KernelResult
from repro.gpu.memory import GlobalMemory
from repro.gpu.thread import ProbedThreadCtx, probe_seams
from repro.gpu.warp import BlockState, build_block
from repro.sched.policy import RoundRobin, make_policy
from repro.sched.trace import ScheduleTrace


class _Sm:
    """One streaming multiprocessor: a queue of blocks and resident warps."""

    __slots__ = (
        "index", "pending", "resident_warps", "resident_blocks", "cycles",
        "mem_txns", "next_warp",
    )

    def __init__(self, index):
        self.index = index
        self.pending = deque()
        self.resident_warps = []
        self.resident_blocks = 0
        self.cycles = 0
        self.mem_txns = 0
        self.next_warp = 0

    def refill(self, config):
        """Admit pending blocks while residency limits allow."""
        while self.pending:
            block = self.pending[0]
            if self.resident_blocks >= config.max_blocks_per_sm:
                break
            if (
                self.resident_warps
                and len(self.resident_warps) + len(block.warps) > config.max_warps_per_sm
            ):
                break
            self.pending.popleft()
            self.resident_blocks += 1
            self.resident_warps.extend(block.warps)

    def busy(self):
        return bool(self.resident_warps or self.pending)


class Device:
    """A simulated GPU: global memory plus a kernel launcher.

    ``telemetry`` attaches a :class:`~repro.telemetry.session.Telemetry`
    session: every launch then reports per-SM/kernel/memory metrics into
    its registry and, when the session records a timeline, gives every
    thread a timeline probe so per-cycle phase slices land on the trace.
    Instruments — timeline, ``sanitizer``, ``fault_injector`` — combine
    freely: each adds a probe to every
    :class:`~repro.gpu.thread.ProbedThreadCtx`.  With none of them (the
    default) threads get the bare :class:`~repro.gpu.thread.ThreadCtx`
    and no instrument code runs on the issue or accounting hot paths.
    """

    def __init__(self, config=None, telemetry=None):
        self.config = config or GpuConfig()
        self.mem = GlobalMemory()
        self.telemetry = telemetry
        # armed by FaultPlan.arm / StmSanitizer.bind (repro.faults); None
        # keeps every launch on the uninstrumented paths
        self.fault_injector = None
        self.sanitizer = None
        # lifetime launch accounting: long-running callers (the ledger
        # service's batching engine) read these instead of instrumenting
        # every launch site; plain integer adds, free on the hot path
        self.launch_count = 0
        self.launched_cycles = 0

    @property
    def total_sms(self):
        """SMs one launch schedules over."""
        return self.config.num_sms

    def launch(self, kernel, grid_blocks, block_threads, args=(), attach=None,
               smem_words=0, policy=None, record_schedule=None):
        """Run ``kernel`` over ``grid_blocks`` x ``block_threads`` threads.

        ``kernel(tc, *args)`` must be a generator function; ``attach(tc)``,
        when given, is called for every thread context before its generator
        is created (TM runtimes use it to install per-thread transaction
        state as ``tc.stm``).

        ``policy`` selects the warp-scheduling policy (anything
        :func:`~repro.sched.policy.make_policy` accepts); it defaults to
        the config's ``scheduler`` spec.  With ``record_schedule=True``
        (default: the config's ``record_schedule``) the issue trace is
        captured and attached to the result as ``schedule_trace``.

        Returns a :class:`KernelResult` with the simulated cycle count, the
        merged phase breakdown and operation counters of all threads.
        """
        if grid_blocks < 1 or block_threads < 1:
            raise LaunchError(
                "launch geometry must be positive, got grid=%d block=%d"
                % (grid_blocks, block_threads)
            )
        config = self.config
        num_sms = self.total_sms
        kernel_name = getattr(kernel, "__name__", str(kernel))
        tel = self.telemetry
        if tel is not None:
            tel.begin_launch(kernel_name, num_sms)
        makers = self._probe_makers()
        ctx_factory = None
        if makers:
            seams = {}  # probe tuple -> its seams; shared probes repeat

            def ctx_factory(tid, lane_id, warp, block, mem, cfg):
                probes = tuple([make(tid, block) for make in makers])
                found = seams.get(probes)
                if found is None:
                    found = seams[probes] = probe_seams(probes)
                return ProbedThreadCtx(tid, lane_id, warp, block, mem, cfg,
                                       probes, found)

        blocks = []
        try:
            for index in range(grid_blocks):
                block = BlockState(index, block_threads, smem_words)
                blocks.append(block)
                build_block(
                    block, index * block_threads, self.mem, config, kernel,
                    args, attach, ctx_factory=ctx_factory
                )

            sms = [_Sm(i) for i in range(num_sms)]
            for index, block in enumerate(blocks):
                sms[index % num_sms].pending.append(block)

            policy = make_policy(config.scheduler if policy is None else policy)
            if record_schedule is None:
                record_schedule = config.record_schedule
            trace = None
            if record_schedule:
                spec = policy.spec()
                trace = ScheduleTrace(
                    policy=spec if isinstance(spec, str) else policy.name)

            policy.reset(config)
            total_steps = self._issue(sms, policy, trace, tel)

            result = self._collect(kernel_name, blocks, sms, total_steps)
        finally:
            _dismantle(blocks)
        if tel is not None:
            self._publish(tel, result, sms)
        if trace is not None:
            trace.meta.update(self._trace_meta(result))
            result.schedule_trace = trace
        self.launch_count += 1
        self.launched_cycles += result.cycles
        return result

    def _probe_makers(self):
        """Ordered ``(tid, block) -> probe`` makers for one launch's thread
        contexts: the timeline, then the sanitizer, then the fault injector
        (last: its intercepts short-circuit).  None: bare contexts."""
        makers = []
        tel = self.telemetry
        if tel is not None and tel.timeline is not None:
            makers.append(tel.thread_probe)
        for probe in (self.sanitizer, self.fault_injector):
            if probe is not None:
                makers.append(lambda tid, block, probe=probe: probe)
        return makers

    def _issue(self, sms, policy, trace, tel):
        """Issue every resident warp to completion; returns the step total.

        One round visits the still-busy SMs in index order, one turn each:
        the policy picks a resident warp and a step quota, the warp is
        issued up to that many steps, and the decision is recorded.  Round
        robin — the default, and the hottest loop in the simulator — is
        specialised once per launch: its selection, quota and cursor update
        run inline, exactly as :class:`~repro.sched.policy.RoundRobin`
        would compute them, instead of as three method calls per turn.

        An armed fault injector may redirect each decision (warp-stall
        windows); ``tel`` observes every turn and never influences one.
        """
        config = self.config
        max_steps = config.max_steps
        record = trace.record if trace is not None else None
        injector = self.fault_injector
        rr = type(policy) is RoundRobin
        quota = config.warp_steps_per_turn
        total_steps = 0
        active_sms = [sm for sm in sms if sm.busy()]
        while active_sms:
            # the active list is rebuilt only on the (rare) rounds where an
            # SM actually drained, not afresh every round
            drained = False
            for sm in active_sms:
                if sm.pending:
                    sm.refill(config)
                warps = sm.resident_warps
                if not warps:
                    if not sm.pending:
                        drained = True
                    continue
                if rr:
                    index = sm.next_warp
                    if index >= len(warps):
                        index = 0
                else:
                    index = policy.select(sm)
                    if not 0 <= index < len(warps):
                        raise LaunchError(
                            "scheduling policy %r selected warp index %r of %d "
                            "resident warps on SM %d"
                            % (policy.name, index, len(warps), sm.index)
                        )
                if injector is not None:
                    # warp-stall faults: may redirect the decision to
                    # another resident warp inside an armed window
                    index = injector.select_index(sm.index, warps, index)
                warp = warps[index]
                block = warp.block
                if not rr:
                    quota = policy.quota(sm, warp)
                turn_start = sm.cycles
                # a bare counter, not range(quota): no iterator per turn
                # (every turn issues at least one step)
                issued = 0
                while True:
                    cost, finished, mem_txns = warp.step()
                    sm.cycles += cost
                    sm.mem_txns += mem_txns
                    issued += 1
                    if finished:
                        block.lanes_finished(finished)
                    elif block.barrier_waiting:
                        block.maybe_release_barrier()
                    if issued >= quota or warp.live == 0:
                        break
                total_steps += issued
                if record is not None:
                    record(sm.index, warp.warp_id, issued)
                if tel is not None:
                    tel.record_turn(
                        sm.index, warp.warp_id, turn_start,
                        sm.cycles - turn_start, issued,
                    )
                retired = warp.live == 0
                if retired:
                    # the block is done once its live-lane count
                    # (maintained by lanes_finished) reaches zero
                    warps.pop(index)
                    if block.live_lanes == 0:
                        sm.resident_blocks -= 1
                    if not warps and not sm.pending:
                        drained = True
                if rr:
                    sm.next_warp = index if retired else index + 1
                else:
                    policy.issued(sm, index, retired)
                # watchdog, checked per issued turn: a livelocked kernel
                # overshoots max_steps by at most one turn quota
                if total_steps > max_steps:
                    raise self._watchdog_error(total_steps, sms, trace, tel)
            if drained:
                active_sms = [sm for sm in active_sms if sm.busy()]
        return total_steps

    def _watchdog_error(self, total_steps, sms, trace, tel):
        """Build the watchdog error, classifying livelock vs deadlock.

        Lanes parked at a reconvergence point or a block barrier cannot
        step again without outside help — their presence means a deadlock
        is (at least partly) suspected, reported as the base
        :class:`ProgressError`.  When every stuck lane is still stepping,
        the kernel is spinning: :class:`LivelockError`.  The partial
        schedule ``trace`` rides on the error (a schedule that *causes* a
        livelock is itself the repro artifact) and ``tel`` gets the
        snapshot.  Built here, not in the issue loop, so no frame of the
        raising traceback holds the error: it dies with its last handler
        instead of in a reference cycle.
        """
        snapshot = self._snapshot(sms)
        parked = any(entry["waiting"] for entry in snapshot["live_warps"])
        barrier = any(
            warp.block.barrier_waiting
            for sm in sms
            for warp in sm.resident_warps
        )
        if tel is not None:
            tel.publish_snapshot(snapshot)
        if parked or barrier:
            error = ProgressError(
                "watchdog: %d warp steps without kernel completion "
                "(deadlock suspected: parked lanes present; see snapshot)"
                % total_steps,
                steps=total_steps,
                snapshot=snapshot,
            )
        else:
            error = LivelockError(
                "watchdog: %d warp steps without kernel completion (livelock: "
                "all stuck lanes still stepping; see snapshot)" % total_steps,
                steps=total_steps,
                snapshot=snapshot,
            )
        error.schedule_trace = trace
        return error

    @staticmethod
    def _snapshot(sms):
        """Diagnostic state attached to a ProgressError.

        ``live_warps`` names every stuck resident warp; ``sms`` adds the
        per-SM queue and cycle state so a diagnosis can distinguish
        "starved in queue" (pending blocks never admitted) from "stuck
        resident" (admitted warps not retiring).  ``polling`` maps each
        word a lane stepper is spinning on to the lanes spinning on it
        (those lanes are stepping, not ``waiting``: a livelock report
        names the lock its lanes never got).
        """
        live_warps = []
        sm_states = []
        for sm in sms:
            sm_states.append(
                {
                    "sm": sm.index,
                    "pending_blocks": len(sm.pending),
                    "resident_blocks": sm.resident_blocks,
                    "resident_warps": len(sm.resident_warps),
                    "cycles": sm.cycles,
                }
            )
            for warp in sm.resident_warps:
                live_warps.append(
                    {
                        "sm": sm.index,
                        "warp": warp.warp_id,
                        "live_lanes": warp.live,
                        "waiting": dict(warp.waiting),
                        "polling": warp.settle_polling(),
                    }
                )
        return {"live_warps": live_warps, "sms": sm_states}

    def _roofline(self, sms):
        """``(kernel cycles, bandwidth cycles, per-device cycles)``.

        Kernel time is bounded below by DRAM throughput — the SMs cannot
        collectively retire memory transactions faster than the memory
        system serves them.  One device has no per-device domains (None).
        """
        bandwidth_cycles = sum(sm.mem_txns for sm in sms) * self.config.costs.dram_txn_cost
        return max(max(sm.cycles for sm in sms), bandwidth_cycles), bandwidth_cycles, None

    def _collect(self, kernel_name, blocks, sms, total_steps):
        cycles, bandwidth_cycles, device_cycles = self._roofline(sms)
        result = KernelResult(
            kernel_name=kernel_name,
            cycles=cycles,
            sm_cycles=[sm.cycles for sm in sms],
            steps=total_steps,
        )
        result.mem_txns = sum(sm.mem_txns for sm in sms)
        result.bandwidth_cycles = bandwidth_cycles
        result.device_cycles = device_cycles
        for block in blocks:
            for warp in block.warps:
                for tc in warp.lane_ctxs:
                    result.absorb_thread(tc)
        return result

    def _publish(self, tel, result, sms):
        """Report one finished launch to the telemetry session."""
        tel.publish_kernel(result, sms)

    def _trace_meta(self, result):
        """Identifying context stored with a recorded schedule trace."""
        config = self.config
        return dict(
            kernel=result.kernel_name,
            cycles=result.cycles,
            steps=result.steps,
            mem_txns=result.mem_txns,
            num_sms=self.total_sms,
            warp_size=config.warp_size,
            warp_steps_per_turn=config.warp_steps_per_turn,
        )


def make_device(config=None, telemetry=None):
    """Build the launcher for ``config``: a single :class:`Device`, or a
    :class:`~repro.multigpu.device.MultiDevice` when ``config.devices > 1``.

    Every harness-level call site constructs its launcher through this
    factory, which is how the ``devices`` / ``link_model`` axis on
    :class:`~repro.gpu.config.GpuConfig` reaches them without a
    conditional of their own.  The multi-GPU package is imported lazily:
    single-device runs never load it.
    """
    if config is not None and getattr(config, "devices", 1) > 1:
        from repro.multigpu.device import MultiDevice

        return MultiDevice(config, telemetry=telemetry)
    return Device(config, telemetry=telemetry)


def _dismantle(blocks):
    """Break the reference cycles of a finished launch's object graph.

    Warps and their lanes, thread contexts and the transaction state the
    ``attach`` callback installed as ``tc.stm`` point at each other; left
    alone, a launch would linger as cyclic garbage until a full collection.
    Emptying every block's warps, every warp's lanes and every lane's
    references (its generator, its stepper, its context's ``stm``) lets
    reference counting free the launch as soon as nothing else holds it.
    A generator still suspended (a watchdog trip) is closed here.  What
    the launch reports — the :class:`KernelResult`, the memory, the
    runtime's statistics and history — holds none of these objects.
    """
    for block in blocks:
        for warp in block.warps:
            for lane in warp.lanes:
                lane.tc.stm = None
                lane.gen_next = lane.resume = lane.stepper = None
            warp.lanes.clear()
            warp.active.clear()
        block.warps.clear()
