"""Per-figure / per-table experiment drivers (DESIGN.md experiment index).

Every public function regenerates one evaluation artifact of the paper and
returns a plain-data result object with a ``render()`` method producing the
ASCII table the benchmark harness prints.  Scaled geometries are documented
in :mod:`repro.harness.configs`; EXPERIMENTS.md records paper-vs-measured.

Each driver builds its sweep as a list of :class:`~repro.harness.parallel.
JobSpec` cells and hands them to :func:`~repro.harness.sweep.run_sweep`,
so any figure can fan out over worker processes (``jobs=N`` /
``REPRO_JOBS``) without changing its results: runs are independent, results
are filed by spec key, and assembly order is fixed by the spec list.
"""

from repro.gpu.events import Phase
from repro.harness import configs
from repro.harness.parallel import JobSpec
from repro.harness.sweep import failures_of, run_sweep
from repro.harness.report import render_breakdown, render_series, render_table
from repro.workloads import make_workload

FIG2_WORKLOADS = ("ra", "ht", "gn", "lb", "km")
FIG2_VARIANTS = (
    "egpgv",
    "vbv",
    "tbv-sorting",
    "hv-backoff",
    "hv-sorting",
    "optimized",
)


def _scaled(params, factor):
    """Shrink a workload geometry for quick runs."""
    scaled = dict(params)
    for key in ("grid", "grid_blocks", "match_grid"):
        if key in scaled:
            scaled[key] = max(1, scaled[key] // factor)
    if "num_points" in scaled:
        scaled["num_points"] = max(32, scaled["num_points"] // factor)
    return scaled


def _params(name, quick):
    params = configs.bench_workload_params(name)
    return _scaled(params, 4) if quick else params


class _Gap:
    """Sentinel for a table/figure cell whose job failed (distinct from
    ``None``, which the figures use for a *simulated* crash)."""

    __slots__ = ()

    def __repr__(self):
        return "GAP"


GAP = _Gap()


class SweepOutcomes(dict):
    """``{spec key: JobResult}`` plus the sweep's failure roster.

    ``run(key)`` is the degradation-aware accessor the drivers use in
    place of ``outcomes[key].unwrap()``: a failed job yields ``None``
    (the driver renders an explicit gap) instead of raising away the
    rest of the figure.  ``failures`` lists every failed job's
    :class:`~repro.harness.parallel.JobFailure` in spec order so the
    drivers' render footers — and the CLI's exit code — can report them.
    """

    def __init__(self, results):
        super().__init__((out.key, out) for out in results)
        self.failures = failures_of(results)

    def run(self, key):
        """The job's ``RunResult``, or ``None`` when the job failed."""
        out = self[key]
        if out.failed:
            return None
        return out.run


def _failures_note(failures):
    """Render footer listing a sweep's failed jobs (empty when clean)."""
    if not failures:
        return ""
    lines = ["", "%d job(s) failed; affected cells render as FAILED:"
             % len(failures)]
    for failure in failures:
        lines.append("  - %r: %s" % (failure.key, failure.brief()))
    return "\n".join(lines)


def _sweep(specs, jobs, metrics=None, timeline_dir=None, **sweep):
    """Run a sweep's spec list and key the results by spec key.

    ``metrics`` (a :class:`~repro.telemetry.MetricRegistry`) turns on
    per-worker telemetry and merges every worker's registry into it —
    the sweeps' single integration point with the telemetry layer.
    ``timeline_dir`` additionally records one Chrome-trace file per run.
    ``sweep`` (``supervise``/``journal``/``recorder``) goes to
    :func:`~repro.harness.sweep.run_sweep` (timeouts, retry,
    checkpoint/resume, the experiment DB — see docs/resilience.md).
    """
    if metrics is not None or timeline_dir is not None:
        for spec in specs:
            spec.telemetry = True
            spec.timeline_dir = timeline_dir
    return SweepOutcomes(
        run_sweep(specs, jobs=jobs, metrics=metrics, **sweep).results)


# ----------------------------------------------------------------------
# Figure 2 — overall speedup over CGL
# ----------------------------------------------------------------------
class Fig2Result:
    def __init__(self):
        self.speedups = {}  # workload -> {variant: speedup, None (crash) or GAP}
        self.cycles = {}
        self.failures = []

    def render(self):
        headers = ["workload"] + list(FIG2_VARIANTS)
        rows = []
        for workload in FIG2_WORKLOADS:
            row = [workload]
            for variant in FIG2_VARIANTS:
                value = self.speedups[workload].get(variant)
                if value is GAP:
                    row.append("FAILED")
                else:
                    row.append("crash" if value is None else "%.2fx" % value)
            rows.append(row)
        return render_table(
            "Figure 2: STM speedup over coarse-grained locking (CGL)",
            headers,
            rows,
            note="paper shape: optimized fastest-or-tied; VBV poor at scale; "
            "EGPGV constrained; KM does not benefit",
        ) + _failures_note(self.failures)


def fig2(quick=False, jobs=None, metrics=None, timeline_dir=None, **sweep):
    """Speedup of every STM variant over CGL on the five workloads."""
    specs = []
    for name in FIG2_WORKLOADS:
        specs.append(JobSpec((name, "cgl"), name, _params(name, quick), "cgl"))
        for variant in FIG2_VARIANTS:
            if variant == "egpgv":
                # EGPGV runs the same total work at its maximum supported
                # concurrency (4 blocks of statically-sized metadata).
                params = configs.egpgv_workload_params(name)
                if quick:
                    params = _scaled(params, 4)
            else:
                params = _params(name, quick)
            specs.append(
                JobSpec(
                    (name, variant), name, params, variant,
                    stm_overrides=configs.egpgv_capacity(),
                    allow_crash=True,
                )
            )
    outcomes = _sweep(specs, jobs, metrics, timeline_dir, **sweep)

    result = Fig2Result()
    result.failures = outcomes.failures
    for name in FIG2_WORKLOADS:
        result.speedups[name] = {}
        result.cycles[name] = {}
        baseline = outcomes.run((name, "cgl"))
        if baseline is not None:
            result.cycles[name]["cgl"] = baseline.cycles
        for variant in FIG2_VARIANTS:
            run = outcomes.run((name, variant))
            if run is None or baseline is None:
                result.speedups[name][variant] = GAP
            elif run.crashed:
                result.speedups[name][variant] = None
            else:
                result.cycles[name][variant] = run.cycles
                result.speedups[name][variant] = baseline.cycles / run.cycles
    return result


# ----------------------------------------------------------------------
# Figure 3 — scalability with thread count
# ----------------------------------------------------------------------
class Fig3Result:
    def __init__(self, workload, thread_counts):
        self.workload = workload
        self.thread_counts = thread_counts
        self.cycles = {}  # variant -> [cycles, None (crash) or GAP per count]
        self.failures = []

    def normalized(self, variant):
        """Throughput speedup relative to the variant's smallest geometry."""
        series = self.cycles[variant]
        base = next(
            (c for c in series if c is not None and c is not GAP and c), None
        )
        out = []
        for c in series:
            if c is GAP:
                out.append("FAILED")
            elif c is None or base is None:
                out.append(None)
            else:
                out.append(base / c)
        return out

    def render(self):
        series = {v: self.normalized(v) for v in self.cycles}
        return render_series(
            "Figure 3: scalability on %s (speedup vs own %d-thread run)"
            % (self.workload, self.thread_counts[0]),
            "threads",
            self.thread_counts,
            series,
        ) + _failures_note(self.failures)


FIG3_VARIANTS = ("egpgv", "vbv", "tbv-sorting", "hv-backoff", "hv-sorting", "optimized")


def fig3(workload_name="ra", thread_counts=(8, 32, 128, 512, 2048), total_txs=2048,
         quick=False, jobs=None, metrics=None, timeline_dir=None,
         **sweep):
    """Fixed total work split over a swept number of threads.

    Reproduces: EGPGV crashes early (static per-block metadata), VBV
    flattens (single sequence lock), the lock-table variants scale.
    """
    if quick:
        thread_counts = thread_counts[:3]
        total_txs = total_txs // 4
    specs = []
    for variant in FIG3_VARIANTS:
        for threads in thread_counts:
            block = min(32, threads)
            grid = max(1, threads // block)
            txs_per_thread = max(1, total_txs // (grid * block))
            params = configs.bench_workload_params(workload_name)
            params.update(grid=grid, block=block, txs_per_thread=txs_per_thread)
            specs.append(
                JobSpec(
                    (variant, threads), workload_name, params, variant,
                    stm_overrides=configs.egpgv_capacity(),
                    allow_crash=True,
                )
            )
    outcomes = _sweep(specs, jobs, metrics, timeline_dir, **sweep)

    result = Fig3Result(workload_name, list(thread_counts))
    result.failures = outcomes.failures
    for variant in FIG3_VARIANTS:
        series = []
        for threads in thread_counts:
            run = outcomes.run((variant, threads))
            if run is None:
                series.append(GAP)
            else:
                series.append(None if run.crashed else run.cycles)
        result.cycles[variant] = series
    return result


# ----------------------------------------------------------------------
# Figure 4 — HV vs TBV under swept shared data / lock counts
# ----------------------------------------------------------------------
class Fig4Result:
    def __init__(self, shared_sizes, lock_sizes, thread_counts):
        self.shared_sizes = shared_sizes
        self.lock_sizes = lock_sizes
        self.thread_counts = thread_counts
        # (shared, locks, threads, scheme) -> (speedup_vs_cgl, abort_rate),
        # or GAP when the point's job (or its CGL baseline) failed
        self.points = {}
        self.failures = []

    @staticmethod
    def _cells(point):
        if point is GAP:
            return "FAILED", "FAILED"
        return "%.2fx" % point[0], "%.0f%%" % (100 * point[1])

    def render(self):
        out = []
        for shared in self.shared_sizes:
            rows = []
            for locks in self.lock_sizes:
                for threads in self.thread_counts:
                    hv_speedup, hv_abort = self._cells(
                        self.points[(shared, locks, threads, "hv")]
                    )
                    tbv_speedup, tbv_abort = self._cells(
                        self.points[(shared, locks, threads, "tbv")]
                    )
                    rows.append(
                        [
                            locks,
                            threads,
                            hv_speedup,
                            tbv_speedup,
                            hv_abort,
                            tbv_abort,
                        ]
                    )
            out.append(
                render_table(
                    "Figure 4(%s): EigenBench, shared data = %d words"
                    % (chr(ord('a') + self.shared_sizes.index(shared)), shared),
                    ["locks", "threads", "HV speedup", "TBV speedup",
                     "HV abort", "TBV abort"],
                    rows,
                )
            )
        return "\n\n".join(out) + _failures_note(self.failures)


def fig4(
    shared_sizes=(1024, 4096, 16384, 65536),
    lock_sizes=(1024, 4096, 16384),
    thread_counts=(256, 1024),
    quick=False,
    jobs=None,
    metrics=None,
    timeline_dir=None,
    **sweep
):
    """EigenBench sweep: HV vs TBV across shared-data and lock-table sizes.

    Paper shape: comparable when shared <= locks; when shared data is large,
    TBV needs many locks to recover while HV reaches near-optimal speed with
    few locks, and HV's abort rate stays far below TBV's.
    """
    if quick:
        shared_sizes = shared_sizes[:2]
        lock_sizes = lock_sizes[:2]
        thread_counts = thread_counts[:1]
    block = 32
    specs = []
    for shared in shared_sizes:
        for threads in thread_counts:
            grid = max(1, threads // block)
            params = dict(
                hot_size=shared, grid=grid, block=block,
                txs_per_thread=2, reads_per_tx=4, writes_per_tx=2,
            )
            specs.append(JobSpec(("cgl", shared, threads), "eb", params, "cgl"))
            for locks in lock_sizes:
                for scheme, variant in (("hv", "hv-sorting"), ("tbv", "tbv-sorting")):
                    specs.append(
                        JobSpec(
                            (shared, locks, threads, scheme), "eb", params,
                            variant, num_locks=locks,
                        )
                    )
    outcomes = _sweep(specs, jobs, metrics, timeline_dir, **sweep)

    result = Fig4Result(list(shared_sizes), list(lock_sizes), list(thread_counts))
    result.failures = outcomes.failures
    for shared in shared_sizes:
        for threads in thread_counts:
            baseline = outcomes.run(("cgl", shared, threads))
            for locks in lock_sizes:
                for scheme in ("hv", "tbv"):
                    run = outcomes.run((shared, locks, threads, scheme))
                    if run is None or baseline is None:
                        result.points[(shared, locks, threads, scheme)] = GAP
                    else:
                        result.points[(shared, locks, threads, scheme)] = (
                            baseline.cycles / run.cycles,
                            run.abort_rate,
                        )
    return result


# ----------------------------------------------------------------------
# Figure 5 — single-thread execution time breakdown
# ----------------------------------------------------------------------
FIG5_PHASES = (
    Phase.NATIVE,
    Phase.INIT,
    Phase.BUFFERING,
    Phase.CONSISTENCY,
    Phase.LOCKS,
    Phase.COMMIT,
    Phase.ABORTED,
)


class Fig5Result:
    def __init__(self):
        self.rows = []  # (kernel label, {phase: fraction})
        self.failures = []

    def render(self):
        return render_breakdown(
            "Figure 5: execution time breakdown under STM-Optimized",
            FIG5_PHASES,
            self.rows,
        ) + _failures_note(self.failures)


def fig5(quick=False, jobs=None, metrics=None, timeline_dir=None, **sweep):
    """Phase breakdown of GN-1, GN-2, LB and KM under STM-Optimized.

    Paper shape: GN-2 dominated by STM overhead (init/buffering); LB and KM
    carry large buffering shares (big read-/write-sets); LB has the largest
    native share (BFS planning); KM burns a visible share in aborted
    transactions.
    """
    specs = [
        JobSpec(name, name, _params(name, quick), "optimized")
        for name in ("gn", "lb", "km")
    ]
    outcomes = _sweep(specs, jobs, metrics, timeline_dir, **sweep)

    result = Fig5Result()
    result.failures = outcomes.failures
    gn = outcomes.run("gn")
    if gn is not None:
        result.rows.append(("GN-1", gn.kernel_results[0].phases.fractions()))
        result.rows.append(("GN-2", gn.kernel_results[1].phases.fractions()))
    for name, label in (("lb", "LB"), ("km", "KM")):
        run = outcomes.run(name)
        if run is not None:
            result.rows.append((label, run.kernel_results[0].phases.fractions()))
    return result


# ----------------------------------------------------------------------
# Table 1 — workload characteristics
# ----------------------------------------------------------------------
class Table1Result:
    def __init__(self):
        self.rows = []  # dicts
        self.failures = []

    def render(self):
        headers = [
            "workload", "kernel", "shared data", "RD/TX", "WR/TX",
            "TX/kernel", "TX time", "conflicts",
        ]
        rows = [
            [
                r["workload"], r["kernel"], r["shared"],
                "%.1f" % r["rd_tx"], "%.1f" % r["wr_tx"],
                r["tx_per_kernel"], "%.0f%%" % (100 * r["tx_time"]),
                "%.0f%%" % (100 * r["conflicts"]),
            ]
            for r in self.rows
        ]
        return render_table(
            "Table 1: transactional characteristics (measured)", headers, rows
        ) + _failures_note(self.failures)


def table1(quick=False, jobs=None, metrics=None, timeline_dir=None, **sweep):
    """Measure the Table 1 columns for every workload under hv-sorting."""
    names = ("ra", "ht", "eb", "lb", "gn", "km")
    specs = [
        JobSpec(name, name, _params(name, quick), "hv-sorting") for name in names
    ]
    outcomes = _sweep(specs, jobs, metrics, timeline_dir, **sweep)

    result = Table1Result()
    result.failures = outcomes.failures
    for name in names:
        run = outcomes.run(name)
        if run is None:
            continue
        # shared_data_size is a property of the constructed workload, not of
        # the run; rebuild the (cheap) workload object to read it
        workload = make_workload(name, **_params(name, quick))
        attempts = run.stats.get("begins", run.commits)
        for index, kernel_result in enumerate(run.kernel_results):
            label = "%s-%d" % (name, index + 1) if len(run.kernel_results) > 1 else name
            result.rows.append(
                dict(
                    workload=name,
                    kernel=label,
                    shared=workload.shared_data_size,
                    rd_tx=run.stats.get("tx_reads", 0) / max(attempts, 1),
                    wr_tx=run.stats.get("tx_writes", 0) / max(attempts, 1),
                    tx_per_kernel=run.commits,
                    tx_time=kernel_result.tx_time_fraction(),
                    conflicts=run.abort_rate,
                )
            )
    return result


# ----------------------------------------------------------------------
# Table 2 — launch configurations at STM-Optimized's optimum
# ----------------------------------------------------------------------
class Table2Result:
    def __init__(self):
        self.rows = []  # (workload, best_grid, best_block, cycles)
        self.failures = []

    def render(self):
        return render_table(
            "Table 2: launch configuration where STM-Optimized is fastest",
            ["workload", "thread-blocks", "threads/block", "cycles"],
            [[w, g, b, c] for w, g, b, c in self.rows],
        ) + _failures_note(self.failures)


# ----------------------------------------------------------------------
# Ablations — the design choices of sections 3.1/4.2, isolated
# ----------------------------------------------------------------------
class AblationResult:
    def __init__(self):
        self.sorting = {}       # livelock study
        self.locklog = {}       # hashed vs flat lock-log comparisons
        self.coalescing = {}    # coalesced vs scattered log cycles
        self.lock_attempts = {} # abort threshold sweep
        self.scheduler = {}     # warp-scheduling policy sensitivity
        self.failures = []

    def render(self):
        def fmt(template, *values):
            if any(value is GAP for value in values):
                return "FAILED"
            return template % values

        rows = []
        rows.append(["lock-sorting off (crossed orders)",
                     "LIVELOCK (watchdog)" if self.sorting["unsorted_livelocks"] else "?"])
        rows.append(["lock-sorting on (same workload)",
                     "%d commits" % self.sorting["sorted_commits"]])
        rows.append(["lock-log: flat sorted list",
                     fmt("%d comparisons", self.locklog["flat_comparisons"])])
        rows.append(["lock-log: order-preserving hash",
                     fmt("%d comparisons (%.1fx fewer)",
                         self.locklog["hashed_comparisons"], self.locklog["ratio"])])
        rows.append(["coalesced read-/write-set logs",
                     fmt("%d cycles", self.coalescing["coalesced_cycles"])])
        rows.append(["scattered logs",
                     fmt("%d cycles (%.2fx slower)",
                         self.coalescing["scattered_cycles"], self.coalescing["ratio"])])
        for attempts, value in sorted(self.lock_attempts.items()):
            rows.append(["max lock attempts = %d" % attempts,
                         "FAILED" if value is GAP
                         else "%d cycles, %.0f%% aborts" % (value[0], 100 * value[1])])
        for turn, value in sorted(self.scheduler.items()):
            rows.append(["warp scheduler: %d-step turns" % turn,
                         "FAILED" if value is GAP
                         else "%d cycles, %.0f%% aborts" % (value[0], 100 * value[1])])
        return render_table(
            "Ablations: encounter-time sorting, hashed lock-log, coalesced "
            "logs, lock-attempt threshold",
            ["design point", "outcome"],
            rows,
        ) + _failures_note(self.failures)


def ablations(quick=False, jobs=None, metrics=None, timeline_dir=None, **sweep):
    """Isolate the paper's design decisions one at a time."""
    from repro.gpu import Device, ProgressError
    from repro.gpu.config import GpuConfig
    from repro.stm import StmConfig, make_runtime
    from repro.stm.runtime.unsorted import (
        UnsortedNoBackoffRuntime,
        crossed_order_kernel,
    )

    result = AblationResult()

    # 1) encounter-time lock-sorting vs none (livelock freedom).  This study
    # drives hand-built devices and inspects runtime objects, so it stays
    # serial; studies 2-5 below are plain run_workload sweeps and fan out.
    def crossed(device):
        data = device.mem.alloc(8, "data")
        return data

    device = Device(GpuConfig(warp_size=2, num_sms=1, max_steps=40_000))
    data = crossed(device)
    runtime = UnsortedNoBackoffRuntime(device, num_locks=8)
    try:
        device.launch(crossed_order_kernel(data, 1), 1, 2, attach=runtime.attach)
        result.sorting["unsorted_livelocks"] = False
    except ProgressError:
        result.sorting["unsorted_livelocks"] = True
    device = Device(GpuConfig(warp_size=2, num_sms=1, max_steps=40_000))
    data = crossed(device)
    runtime = make_runtime("hv-sorting", device, StmConfig(num_locks=8))
    device.launch(crossed_order_kernel(data, 1), 1, 2, attach=runtime.attach)
    result.sorting["sorted_commits"] = runtime.stats["commits"]

    # 2-5) one spec list: hashed vs flat lock-log, coalesced vs scattered
    # logs, the lock-attempt threshold, and scheduler granularity
    ra_params = _params("ra", quick=True)
    km_params = _params("km", quick=True)
    specs = []
    for label, buckets in (("flat", 1), ("hashed", 16)):
        specs.append(
            JobSpec(
                ("locklog", label), "ra", ra_params, "hv-sorting",
                stm_overrides=dict(lock_log_buckets=buckets), verify=False,
            )
        )
    for label, coalesced in (("coalesced", True), ("scattered", False)):
        specs.append(
            JobSpec(
                ("coalescing", label), "ra", ra_params, "hv-sorting",
                stm_overrides=dict(coalesced_logs=coalesced),
            )
        )
    for attempts in (1, 4, 16):
        specs.append(
            JobSpec(
                ("lock_attempts", attempts), "km", km_params, "hv-sorting",
                stm_overrides=dict(max_lock_attempts=attempts),
            )
        )
    for turn in (1, 8):
        specs.append(
            JobSpec(
                ("scheduler", turn), "km", km_params, "hv-sorting",
                gpu_overrides=dict(warp_steps_per_turn=turn),
            )
        )
    outcomes = _sweep(specs, jobs, metrics, timeline_dir, **sweep)

    result.failures = outcomes.failures
    for label in ("flat", "hashed"):
        run = outcomes.run(("locklog", label))
        result.locklog["%s_comparisons" % label] = (
            GAP if run is None else run.stats.get("locklog_comparisons", 0)
        )
    flat = result.locklog["flat_comparisons"]
    hashed = result.locklog["hashed_comparisons"]
    if flat is GAP or hashed is GAP:
        result.locklog["ratio"] = GAP
    else:
        result.locklog["ratio"] = max(flat, 1) / max(hashed, 1)

    for label in ("coalesced", "scattered"):
        run = outcomes.run(("coalescing", label))
        result.coalescing["%s_cycles" % label] = GAP if run is None else run.cycles
    coalesced = result.coalescing["coalesced_cycles"]
    scattered = result.coalescing["scattered_cycles"]
    if coalesced is GAP or scattered is GAP:
        result.coalescing["ratio"] = GAP
    else:
        result.coalescing["ratio"] = scattered / coalesced

    for attempts in (1, 4, 16):
        run = outcomes.run(("lock_attempts", attempts))
        result.lock_attempts[attempts] = (
            GAP if run is None else (run.cycles, run.abort_rate)
        )

    for turn in (1, 8):
        run = outcomes.run(("scheduler", turn))
        result.scheduler[turn] = GAP if run is None else (run.cycles, run.abort_rate)
    return result


def table2(quick=False, jobs=None, metrics=None, timeline_dir=None, **sweep):
    """Sweep launch geometries per workload; report the optimum."""
    sweeps = {
        "ra": [(8, 32), (16, 32), (16, 64), (32, 32)],
        "ht": [(8, 32), (16, 32), (16, 64), (32, 32)],
        "gn": [(8, 32), (16, 32), (16, 64)],
        "lb": [(7, 32), (14, 32), (28, 32)],
        "km": [(4, 32), (8, 32), (16, 32), (32, 32)],
    }
    specs = []
    for name, geometries in sweeps.items():
        if quick:
            geometries = geometries[:2]
        for grid, block in geometries:
            params = _params(name, quick)
            if name == "lb":
                params.update(grid_blocks=grid, block_threads=block)
            else:
                params.update(grid=grid, block=block)
            specs.append(
                JobSpec(
                    (name, grid, block), name, params, "optimized",
                    stm_overrides=configs.egpgv_capacity(),
                )
            )
    outcomes = _sweep(specs, jobs, metrics, timeline_dir, **sweep)

    result = Table2Result()
    result.failures = outcomes.failures
    for name, geometries in sweeps.items():
        if quick:
            geometries = geometries[:2]
        best = None
        for grid, block in geometries:
            run = outcomes.run((name, grid, block))
            if run is None:
                continue
            # strict < keeps the original tie-break: the earliest geometry
            # in sweep order wins among equals
            if best is None or run.cycles < best[2]:
                best = (grid, block, run.cycles)
        if best is None:
            result.rows.append((name, "-", "-", "FAILED"))
        else:
            result.rows.append((name, best[0], best[1], best[2]))
    return result
