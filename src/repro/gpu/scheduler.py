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

Every launch can capture its issue trace into a
:class:`~repro.sched.trace.ScheduleTrace` (``record_schedule=True``), from
which a :class:`~repro.sched.trace.ReplayPolicy` re-executes the identical
schedule — the record/replay substrate of the interleaving fuzzer
(:mod:`repro.sched.fuzz`).

A global watchdog bounds the total number of warp steps, checked after
every issued turn so a runaway kernel overshoots ``max_steps`` by at most
one turn quota; livelocked or deadlocked kernels — the very failure modes
the paper's section 2.2 catalogues — surface as
:class:`~repro.gpu.errors.ProgressError` with a diagnostic snapshot instead
of hanging the host.
"""

import os
import sys
from collections import deque

from repro.gpu.config import GpuConfig
from repro.gpu.errors import LaunchError, LivelockError, ProgressError
from repro.gpu.kernel import KernelResult
from repro.gpu.memory import GlobalMemory
from repro.gpu.warp import build_block
from repro.sched.policy import RoundRobin, make_policy
from repro.sched.trace import ScheduleTrace


def resolve_sm_shards(config):
    """Worker-thread count for sharded-SM execution of one launch.

    The ``REPRO_SM_SHARDS`` environment variable overrides the config's
    ``sm_shards`` field (``0``/unset keeps the sequential issue loops).
    The result is capped at the device's SM count — more workers than SMs
    would only add idle sequencer turns.
    """
    env = os.environ.get("REPRO_SM_SHARDS")
    if env is not None and env.strip() != "":
        try:
            shards = int(env)
        except ValueError:
            raise LaunchError(
                "REPRO_SM_SHARDS must be an integer, got %r" % env
            ) from None
    else:
        shards = getattr(config, "sm_shards", 0)
    if shards < 0:
        raise LaunchError("sm_shards must be >= 0, got %d" % shards)
    return min(shards, config.num_sms)


# sharded execution bypass (injector/sanitizer armed): stderr note emitted
# at most once per process; the telemetry counter counts every launch
_BYPASS_NOTED = False


def note_shards_bypassed(tel):
    """Sharded-SM execution was requested but must fall back to sequential.

    Fault-injection / sanitizer runs hook the sequential issue loop, so a
    launch with both sharding *and* an armed instrument runs sequentially.
    That used to happen silently — a sharded perf campaign with a
    sanitizer armed would quietly measure the sequential loops.  Now every
    bypassed launch bumps the ``gpu.shards.bypassed`` counter (when a
    telemetry session is attached) and the first one per process says so
    on stderr.
    """
    global _BYPASS_NOTED
    if tel is not None:
        tel.registry.add("gpu.shards.bypassed")
    if not _BYPASS_NOTED:
        _BYPASS_NOTED = True
        print(
            "repro: sharded-SM execution bypassed (fault injector or "
            "sanitizer armed); launches run on the sequential issue loops",
            file=sys.stderr,
        )


class _Sm:
    """One streaming multiprocessor: a queue of blocks and resident warps."""

    __slots__ = ("index", "pending", "resident_warps", "resident_blocks", "cycles", "next_warp")

    def __init__(self, index):
        self.index = index
        self.pending = deque()
        self.resident_warps = []
        self.resident_blocks = 0
        self.cycles = 0
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
    its registry and, when the session records a timeline, routes thread
    construction through the telemetry thread context so per-cycle phase
    slices land on the trace.  With ``telemetry=None`` (the default) no
    telemetry code runs anywhere on the issue or accounting hot paths.
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
        tel = self.telemetry
        ctx_factory = None
        if tel is not None:
            tel.begin_launch(getattr(kernel, "__name__", str(kernel)), config.num_sms)
            if tel.timeline is not None:
                # imported lazily: the simulator core stays import-light for
                # the (default) untelemetered runs
                from repro.telemetry.ctx import TelemetryThreadCtx

                def ctx_factory(tid, lane_id, warp, block, mem, cfg):
                    return TelemetryThreadCtx(tid, lane_id, warp, block, mem, cfg, tel)

        injector = self.fault_injector
        sanitizer = self.sanitizer
        if injector is not None or sanitizer is not None:
            if ctx_factory is not None:
                raise LaunchError(
                    "fault injection / sanitizing cannot be combined with a "
                    "telemetry timeline: both own the thread-context factory"
                )
            from repro.faults.ctx import InstrumentedThreadCtx

            def ctx_factory(tid, lane_id, warp, block, mem, cfg):
                return InstrumentedThreadCtx(
                    tid, lane_id, warp, block, mem, cfg, injector, sanitizer
                )

        blocks = []
        for index in range(grid_blocks):
            first_tid = index * block_threads
            blocks.append(
                build_block(
                    index, block_threads, first_tid, self.mem, config, kernel,
                    args, attach, smem_words=smem_words, ctx_factory=ctx_factory
                )
            )

        sms = [_Sm(i) for i in range(config.num_sms)]
        for index, block in enumerate(blocks):
            sms[index % config.num_sms].pending.append(block)

        policy = make_policy(config.scheduler if policy is None else policy)
        if record_schedule is None:
            record_schedule = config.record_schedule
        trace = None
        if record_schedule:
            spec = policy.spec()
            trace = ScheduleTrace(policy=spec if isinstance(spec, str) else policy.name)

        shards = resolve_sm_shards(config)
        if shards > 1 and (injector is not None or sanitizer is not None):
            # fault-injection / sanitizer runs keep the sequential loop —
            # those instruments hook it directly.  Loudly: a counter per
            # bypassed launch plus a once-per-process stderr note.
            note_shards_bypassed(tel)
            shards = 0
        if shards > 1 and len(sms) > 1:
            # sharded-SM execution: SMs are partitioned across worker
            # threads, with per-turn sequencing that preserves the
            # sequential issue order exactly (see repro.gpu.shards)
            from repro.gpu.shards import issue_sharded

            policy.reset(config)
            total_steps, total_mem_txns = issue_sharded(
                self, sms, config, policy, trace, tel, shards
            )
        elif tel is None and injector is None and type(policy) is RoundRobin:
            # (an armed injector takes the generic path so its scheduler
            # hook — warp-stall windows — sees every issue decision)
            # the common case keeps the tight loop: no per-issue virtual
            # calls, bit-identical to the pre-policy scheduler; recording
            # rides along as a plain list append per turn
            total_steps, total_mem_txns = self._issue_round_robin(sms, config, trace)
        else:
            # telemetry-enabled launches take the generic loop, which is
            # cost-equivalent to the fast path under RoundRobin (pinned by
            # the golden-cycle and replay-determinism tests)
            policy.reset(config)
            total_steps, total_mem_txns = self._issue_with_policy(
                sms, config, policy, trace, tel
            )

        result = self._collect(kernel, blocks, sms, total_steps, total_mem_txns, config)
        if tel is not None:
            tel.publish_kernel(result, sms)
        if trace is not None:
            trace.meta.update(
                kernel=result.kernel_name,
                cycles=result.cycles,
                steps=result.steps,
                mem_txns=result.mem_txns,
                num_sms=config.num_sms,
                warp_size=config.warp_size,
                warp_steps_per_turn=config.warp_steps_per_turn,
            )
            result.schedule_trace = trace
        self.launch_count += 1
        self.launched_cycles += result.cycles
        return result

    def _issue_round_robin(self, sms, config, trace=None):
        """Fast path: fixed round-robin issue, optionally recorded.

        Recording is one list append per turn — cheap enough that the
        record/replay benchmark path shares the tight loop (the recorded
        decisions are pinned identical to the generic policy path by the
        trace-replay tests).
        """
        total_steps = 0
        total_mem_txns = 0
        max_steps = config.max_steps
        steps_per_turn = config.warp_steps_per_turn
        record = trace.decisions.append if trace is not None else None
        active_sms = [sm for sm in sms if sm.busy()]
        # The steps-per-turn == 1 round robin (the default, and the hottest
        # loop in the simulator) gets its own copy of the issue loop so the
        # quota branch is decided once per launch, not once per turn.  Both
        # loops rebuild the active list only on the (rare) rounds where an
        # SM actually went idle, not afresh every round.
        if steps_per_turn == 1:
            while active_sms:
                drained = False
                for sm in active_sms:
                    if sm.pending:
                        sm.refill(config)
                    warps = sm.resident_warps
                    if not warps:
                        if not sm.pending:
                            drained = True
                        continue
                    next_warp = sm.next_warp
                    if next_warp >= len(warps):
                        next_warp = 0
                    warp = warps[next_warp]
                    block = warp.block
                    cost, finished, mem_txns = warp.step()
                    sm.cycles += cost
                    total_mem_txns += mem_txns
                    total_steps += 1
                    if finished:
                        block.lanes_finished(finished)
                    elif block.barrier_waiting:
                        block.maybe_release_barrier()
                    if record is not None:
                        record([sm.index, warp.warp_id, 1])
                    if warp.live == 0:
                        # retire the warp; the block is done once its
                        # live-lane count reaches zero
                        warps.pop(next_warp)
                        sm.next_warp = next_warp
                        if block.live_lanes == 0:
                            sm.resident_blocks -= 1
                        if not warps and not sm.pending:
                            drained = True
                    else:
                        sm.next_warp = next_warp + 1
                    # watchdog, checked per issued turn: a livelocked kernel
                    # overshoots max_steps by at most one turn quota
                    if total_steps > max_steps:
                        raise self._watchdog_error(total_steps, sms)
                if drained:
                    active_sms = [sm for sm in active_sms if sm.busy()]
            return total_steps, total_mem_txns
        while active_sms:
            drained = False
            for sm in active_sms:
                if sm.pending:
                    sm.refill(config)
                warps = sm.resident_warps
                if not warps:
                    if not sm.pending:
                        drained = True
                    continue
                next_warp = sm.next_warp
                if next_warp >= len(warps):
                    next_warp = 0
                warp = warps[next_warp]
                block = warp.block
                # issue the selected warp for the configured number of
                # consecutive steps (larger quotas approximate a
                # greedy-then-oldest scheduler)
                issued = 0
                for _turn in range(steps_per_turn):
                    cost, finished, mem_txns = warp.step()
                    sm.cycles += cost
                    total_mem_txns += mem_txns
                    total_steps += 1
                    issued += 1
                    if finished:
                        block.lanes_finished(finished)
                    elif block.barrier_waiting:
                        block.maybe_release_barrier()
                    if warp.live == 0:
                        break
                if record is not None:
                    record([sm.index, warp.warp_id, issued])
                if warp.live == 0:
                    # retire the warp; the block is done once its live-lane
                    # count (maintained by lanes_finished) reaches zero
                    warps.pop(next_warp)
                    sm.next_warp = next_warp
                    if block.live_lanes == 0:
                        sm.resident_blocks -= 1
                else:
                    sm.next_warp = next_warp + 1
                if not warps and not sm.pending:
                    drained = True
                # watchdog, checked per issued turn: a livelocked kernel
                # overshoots max_steps by at most one turn quota
                if total_steps > max_steps:
                    raise self._watchdog_error(total_steps, sms)
            if drained:
                active_sms = [sm for sm in active_sms if sm.busy()]
        return total_steps, total_mem_txns

    def _issue_with_policy(self, sms, config, policy, trace, tel=None):
        """Generic path: delegate warp selection to ``policy``.

        Cost-equivalent to :meth:`_issue_round_robin` for the same
        sequence of decisions — the replay-determinism property the
        record/replay tests pin.  ``tel`` (a telemetry session) observes
        every issued turn; it never influences scheduling decisions.
        """
        total_steps = 0
        total_mem_txns = 0
        max_steps = config.max_steps
        record = trace.record if trace is not None else None
        injector = self.fault_injector
        active_sms = [sm for sm in sms if sm.busy()]
        while active_sms:
            still_active = []
            add_active = still_active.append
            for sm in active_sms:
                if sm.pending:
                    sm.refill(config)
                warps = sm.resident_warps
                if not warps:
                    if sm.pending:
                        add_active(sm)
                    continue
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
                quota = policy.quota(sm, warp)
                issued = 0
                turn_start = sm.cycles if tel is not None else 0
                for _turn in range(quota):
                    cost, finished, mem_txns = warp.step()
                    sm.cycles += cost
                    total_mem_txns += mem_txns
                    total_steps += 1
                    issued += 1
                    if finished:
                        block.lanes_finished(finished)
                    elif block.barrier_waiting:
                        block.maybe_release_barrier()
                    if warp.live == 0:
                        break
                if record is not None:
                    record(sm.index, warp.warp_id, issued)
                if tel is not None:
                    tel.record_turn(
                        sm.index, warp.warp_id, turn_start,
                        sm.cycles - turn_start, issued,
                    )
                retired = warp.live == 0
                if retired:
                    warps.pop(index)
                    if block.live_lanes == 0:
                        sm.resident_blocks -= 1
                policy.issued(sm, index, retired)
                if warps or sm.pending:
                    add_active(sm)
                if total_steps > max_steps:
                    error = self._watchdog_error(total_steps, sms)
                    if tel is not None:
                        tel.publish_snapshot(error.snapshot)
                    # keep the partial trace reachable: a schedule that
                    # *causes* a livelock is itself the repro artifact
                    error.schedule_trace = trace
                    raise error
            active_sms = still_active
        return total_steps, total_mem_txns

    def _watchdog_error(self, total_steps, sms):
        """Build the watchdog error, classifying livelock vs deadlock.

        Lanes parked at a reconvergence point or a block barrier cannot
        step again without outside help — their presence means a deadlock
        is (at least partly) suspected, reported as the base
        :class:`ProgressError`.  When every stuck lane is still stepping,
        the kernel is spinning: :class:`LivelockError`.
        """
        snapshot = self._snapshot(sms)
        parked = any(entry["waiting"] for entry in snapshot["live_warps"])
        barrier = any(
            warp.block.barrier_waiting
            for sm in sms
            for warp in sm.resident_warps
        )
        if parked or barrier:
            return ProgressError(
                "watchdog: %d warp steps without kernel completion "
                "(deadlock suspected: parked lanes present; see snapshot)"
                % total_steps,
                steps=total_steps,
                snapshot=snapshot,
            )
        return LivelockError(
            "watchdog: %d warp steps without kernel completion (livelock: "
            "all stuck lanes still stepping; see snapshot)" % total_steps,
            steps=total_steps,
            snapshot=snapshot,
        )

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

    @staticmethod
    def _collect(kernel, blocks, sms, total_steps, total_mem_txns, config):
        # Roofline: kernel time is bounded below by DRAM throughput — the
        # SMs cannot collectively retire memory transactions faster than the
        # memory system serves them.
        bandwidth_cycles = total_mem_txns * config.costs.dram_txn_cost
        result = KernelResult(
            kernel_name=getattr(kernel, "__name__", str(kernel)),
            cycles=max(max(sm.cycles for sm in sms), bandwidth_cycles),
            sm_cycles=[sm.cycles for sm in sms],
            steps=total_steps,
        )
        result.mem_txns = total_mem_txns
        result.bandwidth_cycles = bandwidth_cycles
        for block in blocks:
            for warp in block.warps:
                for tc in warp.lane_ctxs:
                    result.absorb_thread(tc)
        return result


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
