"""Run one (workload, runtime) pair under a chosen schedule, observably.

This is the single-run engine beneath the interleaving fuzzer: it executes
a workload's kernels under an arbitrary scheduling policy with schedule
recording, full-history capture for the strict-serializability oracle
(:mod:`repro.stm.oracle`), and a :class:`~repro.stm.trace.TxTracer`
commit/abort ledger — everything a failing interleaving needs to be
diagnosed and replayed from artifacts alone.

Unlike :func:`repro.harness.runner.run_workload` (the figures' runner,
which raises on any anomaly), this driver *captures* anomalies: an oracle
violation or a watchdog trip becomes a structured :class:`ScheduleOutcome`
carrying the recorded schedule, so the fuzzer and the shrinker can act on
it.
"""

from repro.gpu import make_device
from repro.gpu.config import GpuConfig
from repro.gpu.errors import LivelockError, ProgressError
from repro.sched.policy import make_policy
from repro.stm import StmConfig, make_runtime
from repro.stm.oracle import SerializabilityViolation, check_history
from repro.stm.trace import TxTracer
from repro.workloads import make_workload


def explore_gpu(max_steps=2_000_000, **overrides):
    """Small, strict geometry used for schedule exploration.

    Few warps per SM keeps every interleaving decision consequential (a
    14-SM, 48-warp device dilutes any single decision's effect), and the
    tight watchdog turns schedule-induced livelock into a fast, structured
    failure instead of a long spin.
    """
    params = dict(
        warp_size=4,
        num_sms=2,
        max_steps=max_steps,
        strict_lockstep=True,
        check_bounds=True,
    )
    params.update(overrides)
    return GpuConfig(**params)


class ScheduleOutcome:
    """Everything observed from one scheduled run (plain, picklable data).

    ``failure`` is ``None`` for a clean run, ``"serializability"`` when
    :func:`check_history` rejected the commit history, ``"progress"``
    when the watchdog tripped, or ``"sanitizer"`` when the run completed
    and serialized correctly but the online invariant checker (enabled
    with ``sanitize=True``) recorded violations.  ``traces`` holds one
    recorded-schedule dict per kernel launch (the last one possibly
    partial on a progress failure).  ``livelock`` narrows a progress
    failure: True when the watchdog classified it as livelock (all stuck
    lanes still stepping) rather than suspected deadlock.
    """

    __slots__ = (
        "workload",
        "variant",
        "policy",
        "failure",
        "detail",
        "traces",
        "cycles",
        "steps",
        "commits",
        "aborts",
        "checked",
        "ledger_summary",
        "ledger_rows",
        "final_words",
        "violations",
        "fired",
        "livelock",
        "counters",
        "first_violations",
        "attribution",
    )

    def __init__(self, workload, variant, policy):
        self.workload = workload
        self.variant = variant
        self.policy = policy
        self.failure = None
        self.detail = None
        self.traces = []
        self.cycles = 0
        self.steps = 0
        self.commits = 0
        self.aborts = 0
        self.checked = 0
        self.ledger_summary = ""
        self.ledger_rows = []
        self.final_words = None
        self.violations = []
        self.fired = []
        self.livelock = False
        # merged per-launch operation counters (plain dict, picklable);
        # multi-device runs carry their mg.* traffic totals here
        self.counters = {}
        # sanitizer check name -> simulated cycle of its first violation
        self.first_violations = {}
        # byzantine runs: oracle attribution dict (blast radius split)
        self.attribution = None

    @property
    def ok(self):
        return self.failure is None

    def decisions(self):
        """All recorded decisions, flattened to (launch, sm, warp, steps)."""
        flat = []
        for launch_index, trace in enumerate(self.traces):
            for sm, warp_id, steps in trace["decisions"]:
                flat.append((launch_index, sm, warp_id, steps))
        return flat

    def __repr__(self):
        status = "ok" if self.ok else "FAIL[%s]" % self.failure
        return "ScheduleOutcome(%s/%s policy=%r %s commits=%d aborts=%d)" % (
            self.workload,
            self.variant,
            self.policy,
            status,
            self.commits,
            self.aborts,
        )


class _Tee:
    """Feeds one runtime's commit/abort events to two TxTracer-protocol
    observers: the outcome's ledger and the telemetry session."""

    __slots__ = ("first", "second")

    def __init__(self, first, second):
        self.first = first
        self.second = second

    def on_commit(self, tx, version):
        self.first.on_commit(tx, version)
        self.second.on_commit(tx, version)

    def on_abort(self, tx, reason):
        self.first.on_abort(tx, reason)
        self.second.on_abort(tx, reason)


def run_under_schedule(
    workload_name,
    params,
    variant,
    policy="rr",
    *,
    num_locks=16,
    stm_overrides=None,
    gpu=None,
    gpu_overrides=None,
    record=True,
    capture_memory=False,
    ledger_capacity=4096,
    runtime_factory=None,
    sanitize=False,
    fault_plan=None,
    telemetry=None,
    exit_checks_on_failure=False,
):
    """Execute ``workload_name`` under ``variant`` with a given schedule.

    ``policy`` is anything :func:`make_policy` accepts, or a *list* of
    such specs — one per kernel launch of the workload — which is how
    recorded traces of a multi-kernel workload are replayed.  A single
    spec is resolved once and the policy instance is shared across the
    workload's launches (so e.g. a seeded-random stream keeps advancing).

    ``runtime_factory(variant, device, stm_config)`` overrides
    :func:`repro.stm.make_runtime`; the fuzzer's efficacy tests use it to
    inject deliberately broken runtimes.  ``capture_memory=True`` snapshots
    the final memory image into ``final_words`` (the replay-determinism
    tests compare it).

    ``sanitize=True`` binds a :class:`~repro.faults.sanitizer.StmSanitizer`
    to the runtime; its violations land in ``outcome.violations`` and, if
    the run was otherwise clean, set ``failure="sanitizer"``.
    ``fault_plan`` (a :class:`~repro.faults.plan.FaultPlan` or an iterable
    of spec strings) is armed on the device after workload setup, so
    region-relative fault addresses resolve; the faults that actually
    fired land in ``outcome.fired``.  A byzantine plan
    (:class:`~repro.faults.byzantine.ByzantinePlan`) additionally yields
    ``outcome.attribution`` — the oracle's blast-radius split between
    byzantine and innocent lanes — when the run completes.

    ``exit_checks_on_failure=True`` runs the sanitizer's kernel-exit
    sweep even after a watchdog trip.  The default skips it because a
    progress failure leaves locks legitimately mid-flight; byzantine
    campaigns opt in so a hoarded lock is *detected* (``lock_leak``)
    rather than hidden behind the hang it caused.

    ``telemetry`` attaches a :class:`~repro.telemetry.session.Telemetry`
    session to the device (kernel/SM/multigpu metrics, runtime counters,
    memory layout); ``gpu_overrides`` with ``devices > 1`` routes the run
    through a multi-device launcher via :func:`repro.gpu.make_device`.

    Returns a :class:`ScheduleOutcome`; never raises for the failure modes
    the fuzzer hunts (oracle violations, watchdog trips, sanitizer
    reports).
    """
    gpu_config = gpu or explore_gpu()
    if gpu_overrides:
        for attr, value in gpu_overrides.items():
            if not hasattr(gpu_config, attr):
                raise ValueError("unknown GpuConfig attribute %r" % attr)
            setattr(gpu_config, attr, value)

    workload = make_workload(workload_name, **params)
    device = make_device(gpu_config, telemetry=telemetry)
    workload.setup(device)

    overrides = dict(stm_overrides or {})
    overrides.setdefault("num_locks", num_locks)
    overrides.setdefault("shared_data_size", workload.shared_data_size)
    overrides["record_history"] = True
    stm_config = StmConfig(**overrides)
    factory = runtime_factory or make_runtime
    runtime = factory(variant, device, stm_config)
    tracer = TxTracer(capacity=ledger_capacity)
    runtime.tracer = tracer if telemetry is None else _Tee(tracer, telemetry)

    sanitizer = None
    if sanitize:
        # imported lazily: repro.sched must stay importable without the
        # faults package (and vice versa — campaign.py imports this module)
        from repro.faults.sanitizer import StmSanitizer

        sanitizer = StmSanitizer().bind(runtime)
    injector = None
    if fault_plan is not None:
        from repro.faults.plan import FaultPlan

        if not isinstance(fault_plan, FaultPlan):
            fault_plan = FaultPlan(fault_plan)
        # armed after setup: the runtime's metadata regions now exist, so
        # region-relative fault addresses resolve
        injector = fault_plan.arm(device)

    specs = list(workload.kernels())
    if isinstance(policy, (list, tuple)):
        policies = [make_policy(p) for p in policy]
        if len(policies) != len(specs):
            raise ValueError(
                "got %d per-launch policies for %d kernel launches"
                % (len(policies), len(specs))
            )
        policy_label = [getattr(p, "name", "?") for p in policies]
    else:
        shared = make_policy(policy)
        policies = [shared] * len(specs)
        spec_repr = shared.spec()
        policy_label = spec_repr if isinstance(spec_repr, str) else shared.name

    outcome = ScheduleOutcome(workload_name, variant, policy_label)
    initial = list(device.mem.words)
    try:
        for spec, launch_policy in zip(specs, policies):
            kernel_result = device.launch(
                spec.kernel,
                spec.grid,
                spec.block,
                args=spec.args,
                attach=runtime.attach,
                policy=launch_policy,
                record_schedule=record,
            )
            outcome.cycles += kernel_result.cycles
            outcome.steps += kernel_result.steps
            counters = outcome.counters
            for name, value in kernel_result.counters.as_dict().items():
                counters[name] = counters.get(name, 0) + value
            if kernel_result.schedule_trace is not None:
                outcome.traces.append(kernel_result.schedule_trace.as_dict())
    except ProgressError as exc:
        outcome.failure = "progress"
        outcome.detail = str(exc)
        outcome.livelock = isinstance(exc, LivelockError)
        outcome.steps += exc.steps
        partial = getattr(exc, "schedule_trace", None)
        if partial is not None:
            outcome.traces.append(partial.as_dict())
        if sanitizer is not None and exit_checks_on_failure:
            sanitizer.check_kernel_exit()
    else:
        try:
            outcome.checked = check_history(runtime.history, initial, device.mem)
        except SerializabilityViolation as exc:
            outcome.failure = "serializability"
            outcome.detail = str(exc)
        if injector is not None and hasattr(injector, "byz_addrs"):
            # byzantine run: split oracle violations between the
            # designated liars and the innocent majority (blast radius)
            from repro.stm.oracle import attribute_history

            total_threads = sum(spec.grid * spec.block for spec in specs)
            outcome.attribution = attribute_history(
                runtime.history, initial, device.mem,
                byz_tids=injector.byz_tids(total_threads),
                byz_addrs=injector.byz_addrs,
            )
        if sanitizer is not None:
            # exit-state invariants only make sense after a completed run;
            # a watchdog trip leaves locks legitimately mid-flight (see
            # ``exit_checks_on_failure`` for the byzantine exception)
            sanitizer.check_kernel_exit()

    if sanitizer is not None:
        outcome.violations = [v.as_dict() for v in sanitizer.violations]
        outcome.first_violations = dict(sanitizer.first_violations)
        if outcome.failure is None and not sanitizer.ok:
            outcome.failure = "sanitizer"
            outcome.detail = sanitizer.report().splitlines()[0]
    if injector is not None:
        outcome.fired = list(injector.fired)

    if telemetry is not None:
        runtime.publish_metrics(telemetry.registry)
        telemetry.publish_memory(device.mem)

    outcome.commits = runtime.stats["commits"]
    outcome.aborts = runtime.stats["aborts"]
    outcome.ledger_summary = tracer.summary()
    outcome.ledger_rows = [event.as_row() for event in tracer.events]
    if capture_memory:
        outcome.final_words = list(device.mem.words)
    return outcome


def replay_outcome(outcome, workload_name, params, variant, **kwargs):
    """Re-execute the exact schedule an outcome recorded.

    Builds one :class:`~repro.sched.trace.ReplayPolicy` per recorded
    launch and runs the workload again; with the same workload parameters
    the replay is deterministic (identical cycles, steps, memory image).
    """
    policies = [
        {"type": "replay", "decisions": trace["decisions"]}
        for trace in outcome.traces
    ]
    return run_under_schedule(
        workload_name, params, variant, policy=policies, **kwargs
    )
