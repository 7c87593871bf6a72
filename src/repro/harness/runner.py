"""Run one (workload, STM variant) combination and collect metrics."""

from repro.gpu import make_device
from repro.gpu.errors import GpuError
from repro.stm import StmConfig, make_runtime
from repro.stm.errors import EgpgvCapacityError
from repro.stm.oracle import check_history


class RunResult:
    """Everything the figures and tables need from one run."""

    __slots__ = (
        "workload",
        "variant",
        "cycles",
        "kernel_results",
        "stats",
        "abort_rate",
        "commits",
        "tx_time_fraction",
        "crashed",
        "crash_reason",
    )

    def __init__(self, workload, variant):
        self.workload = workload
        self.variant = variant
        self.cycles = 0
        self.kernel_results = []
        self.stats = {}
        self.abort_rate = 0.0
        self.commits = 0
        self.tx_time_fraction = 0.0
        self.crashed = False
        self.crash_reason = None

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
        }

    def __repr__(self):
        if self.crashed:
            return "RunResult(%s/%s CRASHED: %s)" % (
                self.workload,
                self.variant,
                self.crash_reason,
            )
        return "RunResult(%s/%s cycles=%d commits=%d abort_rate=%.2f)" % (
            self.workload,
            self.variant,
            self.cycles,
            self.commits,
            self.abort_rate,
        )


def _publish_run(telemetry, runtime, result, device):
    """Report a finished (or crashed) run into the telemetry session."""
    if telemetry is None:
        return
    runtime.publish_metrics(telemetry.registry)
    telemetry.publish_memory(device.mem)
    telemetry.registry.add("runs.crashed" if result.crashed else "runs.completed")


def run_workload(
    workload,
    variant,
    gpu_config,
    num_locks=1024,
    stm_overrides=None,
    verify=True,
    check_oracle=False,
    allow_crash=False,
    telemetry=None,
    sanitizer=None,
    fault_plan=None,
):
    """Set up ``workload`` on a fresh device, run all its kernels under the
    STM ``variant``, verify, and return a :class:`RunResult`.

    ``allow_crash=True`` converts :class:`EgpgvCapacityError` into a crashed
    result instead of raising — how the Figure 3 sweep records EGPGV's
    behaviour at large thread counts.

    ``telemetry`` (a :class:`~repro.telemetry.session.Telemetry`) attaches
    the telemetry layer: the device reports scheduler/kernel metrics, the
    runtime publishes its counter bag and gauges after the run, and — when
    the session records a timeline — it is installed as the runtime's
    tracer so abort reasons and commit versions reach the trace.

    ``sanitizer`` (a :class:`~repro.faults.sanitizer.StmSanitizer`) is
    bound to the runtime so the online invariant checks run alongside the
    workload; its at-exit checks run after the last kernel.  ``fault_plan``
    (a :class:`~repro.faults.plan.FaultPlan`, or an iterable of
    ``FaultSpec.parse`` strings — the form :class:`~repro.harness.parallel.
    JobSpec` carries across process boundaries) is armed on the device
    after workload setup so region-relative fault addresses resolve.  All
    three combine on one run: each is a probe of every thread context
    (:class:`~repro.gpu.thread.ProbedThreadCtx`).
    """
    if fault_plan is not None:
        # imported lazily: the harness must stay importable without the
        # faults package on the happy path
        from repro.faults.plan import FaultPlan

        if not isinstance(fault_plan, FaultPlan):
            fault_plan = FaultPlan(fault_plan)
    device = make_device(gpu_config, telemetry=telemetry)
    workload.setup(device)
    overrides = dict(stm_overrides or {})
    overrides.setdefault("num_locks", num_locks)
    overrides.setdefault("shared_data_size", workload.shared_data_size)
    if check_oracle:
        overrides["record_history"] = True
    config = StmConfig(**overrides)
    runtime = make_runtime(variant, device, config)
    if telemetry is not None and runtime.tracer is None:
        runtime.tracer = telemetry
    if sanitizer is not None:
        sanitizer.bind(runtime)
    if fault_plan is not None:
        fault_plan.arm(device)

    result = RunResult(workload.name, variant)
    initial = list(device.mem.words) if check_oracle else None
    try:
        for spec in workload.kernels():
            kernel_result = device.launch(
                spec.kernel, spec.grid, spec.block, args=spec.args, attach=runtime.attach
            )
            result.kernel_results.append(kernel_result)
            result.cycles += kernel_result.cycles
    except EgpgvCapacityError as exc:
        if not allow_crash:
            raise
        result.crashed = True
        result.crash_reason = str(exc)
        _publish_run(telemetry, runtime, result, device)
        return result

    for tx in runtime.threads:
        locklog = getattr(tx, "locklog", None)
        if locklog is not None:
            runtime.stats.add("locklog_comparisons", locklog.comparisons)
    result.stats = runtime.stats.as_dict()
    result.commits = runtime.stats["commits"]
    result.abort_rate = runtime.abort_rate()
    total = sum(k.thread_cycles_total for k in result.kernel_results)
    in_tx = sum(k.thread_cycles_in_tx for k in result.kernel_results)
    result.tx_time_fraction = in_tx / total if total else 0.0
    _publish_run(telemetry, runtime, result, device)
    if sanitizer is not None:
        sanitizer.check_kernel_exit()

    if verify:
        workload.verify(device, runtime)
        expected = workload.expected_commits()
        if expected is not None and result.commits != expected:
            raise AssertionError(
                "%s/%s commits %d != expected %d"
                % (workload.name, variant, result.commits, expected)
            )
    if check_oracle:
        check_history(runtime.history, initial, device.mem)
    return result
