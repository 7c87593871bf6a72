"""Run one (workload, STM variant) combination and collect its outcome.

:func:`run_workload` is the only run path: the figure sweeps, the
interleaving fuzzer, the mutant and byzantine campaigns, the multi-device
survival map and the ``sanitize`` target all call it.  The caller picks
what a failure does: by default (the figures) any anomaly raises; with
``capture=True`` (exploration) an oracle violation, a watchdog trip or a
sanitizer report becomes data on the returned :class:`RunResult`,
together with its schedule when recorded, so the run can be diagnosed and
replayed from its artifacts alone.
"""

from dataclasses import dataclass, field

from repro.gpu import make_device
from repro.gpu.errors import LivelockError, ProgressError
from repro.harness.configs import DEFAULT_NUM_LOCKS
from repro.sched.policy import make_policy
from repro.stm import StmConfig, make_runtime
from repro.stm.errors import EgpgvCapacityError
from repro.stm.oracle import (
    SerializabilityViolation,
    attribute_history,
    check_history,
)


@dataclass(repr=False, eq=False)
class RunResult:
    """Everything observed from one run (plain, picklable data).

    ``failure`` is ``None`` for a clean run; otherwise ``"crash"`` (EGPGV
    ran out of static capacity under ``allow_crash``), ``"progress"``
    (the watchdog tripped), ``"serializability"`` (the oracle rejected
    the commit history) or ``"sanitizer"`` (the online invariant checker
    recorded violations), with ``detail`` its message.  ``traces`` holds
    one recorded-schedule dict per recorded launch (the last one possibly
    partial on a progress failure), the run's only copy of its schedule
    (``kernel_results`` carry none); ``livelock`` narrows a progress
    failure to the watchdog's livelock classification.
    ``shared_data_size`` is the workload's count of transactionally
    shared words (Table 1's "shared data").
    """

    workload: str
    variant: str
    policy: object = None
    shared_data_size: int = 0
    failure: str = None
    detail: str = None
    cycles: int = 0
    steps: int = 0
    kernel_results: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    commits: int = 0
    aborts: int = 0
    abort_rate: float = 0.0
    tx_time_fraction: float = 0.0
    traces: list = field(default_factory=list)
    #: histories the oracle replayed (0 when it did not run)
    checked: int = 0
    final_words: list = None
    violations: list = field(default_factory=list)
    #: sanitizer check name -> simulated cycle of its first violation
    first_violations: dict = field(default_factory=dict)
    fired: list = field(default_factory=list)
    livelock: bool = False
    #: byzantine runs: oracle attribution dict (blast radius split)
    attribution: dict = None

    @property
    def ok(self):
        return self.failure is None

    @property
    def crashed(self):
        return self.failure == "crash"

    @property
    def crash_reason(self):
        return self.detail if self.crashed else None

    @property
    def counters(self):
        """Operation counters merged over the completed launches (plain
        dict); multi-device runs carry their ``mg.*`` traffic here."""
        merged = {}
        for kernel_result in self.kernel_results:
            for name, value in kernel_result.counters.as_dict().items():
                merged[name] = merged.get(name, 0) + value
        return merged

    def decisions(self):
        """All recorded decisions, flattened to (launch, sm, warp, steps)."""
        flat = []
        for launch_index, trace in enumerate(self.traces):
            for sm, warp_id, steps in trace["decisions"]:
                flat.append((launch_index, sm, warp_id, steps))
        return flat

    def replay_policies(self):
        """Per-launch policy specs that re-execute the recorded schedule
        (pass as ``policy=``); with the same workload parameters the replay
        is deterministic: identical cycles, steps and memory image."""
        return [{"type": "replay", "decisions": trace["decisions"]}
                for trace in self.traces]

    def as_summary(self):
        """Deterministic plain-data digest of the run, for the experiment
        database's per-cell summaries — numbers only, nothing timed."""
        return {
            "workload": self.workload,
            "variant": self.variant,
            "cycles": self.cycles,
            "commits": self.commits,
            "abort_rate": round(self.abort_rate, 6),
            "crashed": self.crashed,
            "crash_reason": self.crash_reason,
            "failure": self.failure,
        }


def _launch_policies(policy, launches):
    """``(per-launch policies, label)`` for :func:`run_workload`.

    ``None`` leaves every launch on its config's ``scheduler`` spec; a
    single spec is resolved once and shared across launches (a seeded
    random stream keeps advancing); a list gives one spec per launch
    (how a multi-kernel recorded schedule replays).
    """
    if policy is None:
        return [None] * launches, None
    if isinstance(policy, (list, tuple)):
        policies = [make_policy(p) for p in policy]
        if len(policies) != launches:
            raise ValueError(
                "got %d per-launch policies for %d kernel launches"
                % (len(policies), launches)
            )
        return policies, [getattr(p, "name", "?") for p in policies]
    shared = make_policy(policy)
    spec = shared.spec()
    return [shared] * launches, spec if isinstance(spec, str) else shared.name


def run_workload(
    workload,
    variant,
    gpu_config,
    policy=None,
    *,
    num_locks=DEFAULT_NUM_LOCKS,
    stm_overrides=None,
    verify=True,
    check_oracle=False,
    allow_crash=False,
    capture=False,
    record=None,
    runtime_factory=None,
    telemetry=None,
    sanitizer=None,
    fault_plan=None,
):
    """Set up ``workload`` on a fresh device, run all its kernels under the
    STM ``variant`` and return a :class:`RunResult`.

    Raise mode (the default, the figures): a watchdog trip or an oracle
    violation raises; ``verify`` checks the workload's final state and
    commit count; ``check_oracle`` replays the commit history through
    the strict-serializability oracle; ``allow_crash=True`` turns an
    :class:`EgpgvCapacityError` into ``failure="crash"`` — how the
    Figure 3 sweep records EGPGV's behaviour at large thread counts.

    Capture mode (``capture=True``, exploration): the oracle always runs
    and ``verify`` does not; a watchdog trip, an oracle violation or a
    sanitizer report sets ``failure``/``detail`` instead of raising, and
    the run's final memory image lands in ``final_words``.

    ``policy`` is anything :func:`make_policy` accepts, or a list of such
    specs, one per kernel launch; ``None`` keeps the config's scheduler.
    ``record`` overrides the config's ``record_schedule``; recorded
    schedules land in ``traces``.  ``runtime_factory(variant,
    device, stm_config)`` replaces :func:`repro.stm.make_runtime` (the
    mutant corpus plugs in here).

    ``telemetry`` (a :class:`~repro.telemetry.session.Telemetry`) gets the
    device's scheduler/kernel metrics, the runtime's counters and gauges
    and, as a runtime observer, every commit and abort.  ``sanitizer`` (a
    :class:`~repro.faults.sanitizer.StmSanitizer`) is bound to the runtime;
    its violations land in ``violations``/``first_violations`` and, when
    the run was otherwise clean, set ``failure="sanitizer"`` (in either
    mode).  ``fault_plan`` (a :class:`~repro.faults.plan.FaultPlan`, or an
    iterable of ``FaultSpec.parse`` strings — the form sweep cells carry
    across process boundaries) is armed after workload setup so
    region-relative fault addresses resolve; the faults that fired land in
    ``fired``.  A plan arming a byzantine kind (``injector.byzantine``)
    also yields ``attribution`` (the oracle's blast-radius split) on a
    completed run, and runs the sanitizer's exit sweep even after a
    watchdog trip, so a hoarded lock is detected rather than hidden behind
    the hang it caused.  All three instruments
    combine on one run: each is a probe of every thread context
    (:class:`~repro.gpu.thread.ProbedThreadCtx`).
    """
    if fault_plan is not None:
        # imported lazily: the harness must stay importable without the
        # faults package on the happy path
        from repro.faults.plan import FaultPlan

        if not isinstance(fault_plan, FaultPlan):
            fault_plan = FaultPlan(fault_plan)
    check_oracle = check_oracle or capture
    device = make_device(gpu_config, telemetry=telemetry)
    workload.setup(device)
    overrides = dict(stm_overrides or {})
    overrides.setdefault("num_locks", num_locks)
    overrides.setdefault("shared_data_size", workload.shared_data_size)
    if check_oracle:
        overrides["record_history"] = True
    runtime = (runtime_factory or make_runtime)(
        variant, device, StmConfig(**overrides))
    if telemetry is not None:
        runtime.observe(telemetry)
    if sanitizer is not None:
        sanitizer.bind(runtime)
    injector = None
    if fault_plan is not None:
        # the injector is a device probe; in the observer slot it adds
        # only the runtime seams its armed kinds bind (validation lies)
        injector = fault_plan.arm(device)
        runtime.observe(injector)
    byzantine = injector is not None and injector.byzantine

    specs = list(workload.kernels())
    policies, label = _launch_policies(policy, len(specs))
    result = RunResult(workload.name, variant,
                       gpu_config.scheduler if label is None else label,
                       shared_data_size=workload.shared_data_size)
    initial = list(device.mem.words) if check_oracle else None
    completed = False
    try:
        for spec, launch_policy in zip(specs, policies):
            kernel_result = device.launch(
                spec.kernel, spec.grid, spec.block, args=spec.args,
                attach=runtime.attach, policy=launch_policy,
                record_schedule=record,
            )
            result.kernel_results.append(kernel_result)
            result.cycles += kernel_result.cycles
            result.steps += kernel_result.steps
            trace = kernel_result.schedule_trace
            if trace is not None:
                # the run keeps one copy of its schedule: the dict form
                kernel_result.schedule_trace = None
                result.traces.append(trace.as_dict())
        completed = True
    except EgpgvCapacityError as exc:
        if not allow_crash:
            raise
        result.failure = "crash"
        result.detail = str(exc)
        _publish_run(telemetry, runtime, device, completed)
        return result
    except ProgressError as exc:
        if not capture:
            raise
        result.failure = "progress"
        result.detail = str(exc)
        result.livelock = isinstance(exc, LivelockError)
        result.steps += exc.steps
        partial = getattr(exc, "schedule_trace", None)
        if partial is not None:
            result.traces.append(partial.as_dict())

    tally = runtime.locklog_tally
    if tally is not None:
        runtime.stats.add("locklog_comparisons", tally.comparisons)
    stats = runtime.stats
    result.stats = stats.as_dict()
    result.commits = stats["commits"]
    result.aborts = stats["aborts"]
    result.abort_rate = runtime.abort_rate()
    total = sum(k.thread_cycles_total for k in result.kernel_results)
    in_tx = sum(k.thread_cycles_in_tx for k in result.kernel_results)
    result.tx_time_fraction = in_tx / total if total else 0.0
    _publish_run(telemetry, runtime, device, completed)

    if sanitizer is not None and (completed or byzantine):
        # exit-state invariants only make sense after a completed run: a
        # watchdog trip leaves locks legitimately mid-flight, except under
        # a byzantine plan whose hoarded lock caused the hang
        sanitizer.check_kernel_exit()
    if completed and not capture and verify:
        workload.verify(device, runtime)
        expected = workload.expected_commits()
        if expected is not None and result.commits != expected:
            raise AssertionError(
                "%s/%s commits %d != expected %d"
                % (workload.name, variant, result.commits, expected)
            )
    if completed and check_oracle:
        try:
            result.checked = check_history(runtime.history, initial, device.mem)
        except SerializabilityViolation as exc:
            if not capture:
                raise
            result.failure = "serializability"
            result.detail = str(exc)
        if byzantine:
            # split oracle violations between the designated liars and
            # the innocent majority (blast radius)
            total_threads = sum(spec.grid * spec.block for spec in specs)
            result.attribution = attribute_history(
                runtime.history, initial, device.mem,
                byz_tids=fault_plan.byz_tids(total_threads),
                byz_addrs=injector.byz_addrs,
            )

    if sanitizer is not None:
        result.violations = [v.as_dict() for v in sanitizer.violations]
        result.first_violations = dict(sanitizer.first_violations)
        if result.failure is None and not sanitizer.ok:
            result.failure = "sanitizer"
            result.detail = sanitizer.report().splitlines()[0]
    if injector is not None:
        result.fired = list(injector.fired)
    if capture:
        result.final_words = list(device.mem.words)
    return result


def _publish_run(telemetry, runtime, device, completed):
    """Report a finished (or crashed) run into the telemetry session."""
    if telemetry is None:
        return
    runtime.publish_metrics(telemetry.registry)
    telemetry.publish_memory(device.mem)
    telemetry.registry.add("runs.completed" if completed else "runs.crashed")
