"""Per-figure / per-table experiments (DESIGN.md experiment index).

Every evaluation artifact of the paper is a :class:`Figure`: a
``grid(quick)`` listing its cells as :class:`~repro.harness.parallel.
JobSpec` s, and a pure ``reduce(runs)`` turning the finished cells —
``{spec key: RunResult}``, ``None`` for a failed cell — into a plain-data
result whose ``render()`` produces the ASCII table the harness prints.
Scaled geometries are documented in :mod:`repro.harness.configs`;
EXPERIMENTS.md records paper-vs-measured.

:func:`run_figure` is the one entry point: it runs a grid through
:func:`~repro.harness.sweep.run_sweep`, so any figure can fan out over
worker processes (``jobs=N`` / ``REPRO_JOBS``) without changing its
results — runs are independent, results are filed by spec key, and
``runs`` keeps spec order.  A reduce reads nothing but ``runs`` (it
builds no workload and no device), so a figure re-derives from stored
cells, e.g. a sweep journal, without simulating.
"""

from collections import namedtuple

from repro.gpu.events import Phase
from repro.harness import configs
from repro.harness.parallel import JobSpec
from repro.harness.report import render_breakdown, render_series, render_table
from repro.harness.sweep import run_sweep

FIG2_WORKLOADS = ("ra", "ht", "gn", "lb", "km")
FIG2_VARIANTS = ("egpgv", "vbv", "tbv-sorting", "hv-backoff", "hv-sorting", "optimized")
FIG3_VARIANTS = FIG2_VARIANTS
FIG3_WORKLOAD = "ra"
FIG3_THREAD_COUNTS = (8, 32, 128, 512, 2048)
FIG3_TOTAL_TXS = 2048
FIG4_SHARED_SIZES = (1024, 4096, 16384, 65536)
FIG4_LOCK_SIZES = (1024, 4096, 16384)
FIG4_THREAD_COUNTS = (256, 1024)
FIG5_PHASES = (Phase.NATIVE, Phase.INIT, Phase.BUFFERING, Phase.CONSISTENCY,
               Phase.LOCKS, Phase.COMMIT, Phase.ABORTED)
TABLE1_WORKLOADS = ("ra", "ht", "eb", "lb", "gn", "km")
#: workload -> the (grid, block) launch geometries Table 2 sweeps
TABLE2_GEOMETRIES = {
    "ra": [(8, 32), (16, 32), (16, 64), (32, 32)],
    "ht": [(8, 32), (16, 32), (16, 64), (32, 32)],
    "gn": [(8, 32), (16, 32), (16, 64)],
    "lb": [(7, 32), (14, 32), (28, 32)],
    "km": [(4, 32), (8, 32), (16, 32), (32, 32)],
}


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


def _axis(keys, index):
    """The distinct values of one position of tuple ``keys``, in order."""
    return list(dict.fromkeys(key[index] for key in keys))


def _read(run, value):
    """``value(run)``, or :data:`GAP` for a failed cell (``None``)."""
    return GAP if run is None else value(run)


def _kernels(name, run):
    """``(label, kernel result)`` per launch: ``name`` alone for a
    single-kernel workload, else ``name-1``, ``name-2``, ..."""
    kernels = run.kernel_results
    if len(kernels) == 1:
        return [(name, kernels[0])]
    return [("%s-%d" % (name, index + 1), kernel)
            for index, kernel in enumerate(kernels)]


#: sentinel for a table/figure cell whose job failed (distinct from
#: ``None``, which the figures use for a *simulated* crash)
GAP = object()


def _failures_note(failures):
    """Render footer listing a sweep's failed jobs (empty when clean)."""
    if not failures:
        return ""
    lines = ["", "%d job(s) failed; affected cells render as FAILED:"
             % len(failures)]
    for failure in failures:
        lines.append("  - %r: %s" % (failure.key, failure.brief()))
    return "\n".join(lines)


class FigureResult:
    """What every reduce returns: ``body()`` is the figure's own table;
    ``render()`` appends the roster of :attr:`failures`."""

    #: :class:`~repro.harness.parallel.JobFailure` per failed cell, in spec
    #: order (attached by :func:`run_figure`)
    failures = ()

    def render(self):
        return self.body() + _failures_note(self.failures)


# ----------------------------------------------------------------------
# Figure 2 — overall speedup over CGL
# ----------------------------------------------------------------------
class Fig2Result(FigureResult):
    def __init__(self):
        self.speedups = {}  # workload -> {variant: speedup, None (crash) or GAP}
        self.cycles = {}

    def body(self):
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
        )


def fig2_grid(quick):
    """Every STM variant and its CGL baseline on the five workloads."""
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
            specs.append(JobSpec(
                (name, variant), name, params, variant,
                stm_overrides=configs.egpgv_capacity(), allow_crash=True))
    return specs


def fig2_reduce(runs):
    """Speedup of every STM variant over CGL."""
    result = Fig2Result()
    for name in FIG2_WORKLOADS:
        result.speedups[name] = {}
        result.cycles[name] = {}
        baseline = runs[(name, "cgl")]
        if baseline is not None:
            result.cycles[name]["cgl"] = baseline.cycles
        for variant in FIG2_VARIANTS:
            run = runs[(name, variant)]
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
class Fig3Result(FigureResult):
    def __init__(self, workload, thread_counts):
        self.workload = workload
        self.thread_counts = thread_counts
        self.cycles = {}  # variant -> [cycles, None (crash) or GAP per count]

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

    def body(self):
        series = {v: self.normalized(v) for v in self.cycles}
        return render_series(
            "Figure 3: scalability on %s (speedup vs own %d-thread run)"
            % (self.workload, self.thread_counts[0]),
            "threads",
            self.thread_counts,
            series,
        )


def fig3_grid(quick):
    """Fixed total work split over a swept number of threads."""
    thread_counts = FIG3_THREAD_COUNTS[:3] if quick else FIG3_THREAD_COUNTS
    total_txs = FIG3_TOTAL_TXS // 4 if quick else FIG3_TOTAL_TXS
    specs = []
    for variant in FIG3_VARIANTS:
        for threads in thread_counts:
            block = min(32, threads)
            grid = max(1, threads // block)
            txs_per_thread = max(1, total_txs // (grid * block))
            params = configs.bench_workload_params(FIG3_WORKLOAD)
            params.update(grid=grid, block=block, txs_per_thread=txs_per_thread)
            specs.append(JobSpec(
                (variant, threads), FIG3_WORKLOAD, params, variant,
                stm_overrides=configs.egpgv_capacity(), allow_crash=True))
    return specs


def fig3_reduce(runs):
    """Each variant's cycles per thread count.

    Paper shape: EGPGV crashes early (static per-block metadata), VBV
    flattens (single sequence lock), the lock-table variants scale.
    """
    thread_counts = _axis(runs, 1)
    result = Fig3Result(FIG3_WORKLOAD, thread_counts)
    for variant in FIG3_VARIANTS:
        result.cycles[variant] = [
            _read(runs[(variant, threads)],
                  lambda run: None if run.crashed else run.cycles)
            for threads in thread_counts
        ]
    return result


# ----------------------------------------------------------------------
# Figure 4 — HV vs TBV under swept shared data / lock counts
# ----------------------------------------------------------------------
class Fig4Result(FigureResult):
    def __init__(self, shared_sizes, lock_sizes, thread_counts):
        self.shared_sizes = shared_sizes
        self.lock_sizes = lock_sizes
        self.thread_counts = thread_counts
        # (shared, locks, threads, scheme) -> (speedup_vs_cgl, abort_rate),
        # or GAP when the point's job (or its CGL baseline) failed
        self.points = {}

    @staticmethod
    def _cells(point):
        if point is GAP:
            return "FAILED", "FAILED"
        return "%.2fx" % point[0], "%.0f%%" % (100 * point[1])

    def body(self):
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
                    rows.append([locks, threads, hv_speedup, tbv_speedup,
                                 hv_abort, tbv_abort])
            out.append(
                render_table(
                    "Figure 4(%s): EigenBench, shared data = %d words"
                    % (chr(ord('a') + self.shared_sizes.index(shared)), shared),
                    ["locks", "threads", "HV speedup", "TBV speedup",
                     "HV abort", "TBV abort"],
                    rows,
                )
            )
        return "\n\n".join(out)


def fig4_grid(quick):
    """EigenBench: CGL, HV and TBV across shared-data and lock-table sizes."""
    shared_sizes, lock_sizes, thread_counts = (
        FIG4_SHARED_SIZES, FIG4_LOCK_SIZES, FIG4_THREAD_COUNTS)
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
                    specs.append(JobSpec(
                        (shared, locks, threads, scheme), "eb", params,
                        variant, num_locks=locks))
    return specs


def fig4_reduce(runs):
    """HV and TBV speedup over CGL and abort rate per point.

    Paper shape: comparable when shared <= locks; when shared data is
    large, TBV needs many locks to recover while HV reaches near-optimal
    speed with few locks, and HV's abort rate stays far below TBV's.
    """
    points = [key for key in runs if key[0] != "cgl"]
    result = Fig4Result(_axis(points, 0), _axis(points, 1), _axis(points, 2))
    for point in points:
        baseline = runs[("cgl", point[0], point[2])]
        result.points[point] = _read(
            runs[point] if baseline is not None else None,
            lambda run: (baseline.cycles / run.cycles, run.abort_rate))
    return result


# ----------------------------------------------------------------------
# Figure 5 — single-thread execution time breakdown
# ----------------------------------------------------------------------
class Fig5Result(FigureResult):
    def __init__(self):
        self.rows = []  # (kernel label, {phase: fraction})

    def body(self):
        return render_breakdown(
            "Figure 5: execution time breakdown under STM-Optimized",
            FIG5_PHASES,
            self.rows,
        )


def fig5_grid(quick):
    """GN, LB and KM under STM-Optimized."""
    return [
        JobSpec(name, name, _params(name, quick), "optimized")
        for name in ("gn", "lb", "km")
    ]


def fig5_reduce(runs):
    """Phase breakdown of GN-1, GN-2, LB and KM.

    Paper shape: GN-2 dominated by STM overhead (init/buffering); LB and KM
    carry large buffering shares (big read-/write-sets); LB has the largest
    native share (BFS planning); KM burns a visible share in aborted
    transactions.
    """
    result = Fig5Result()
    for name, run in runs.items():
        if run is not None:
            result.rows.extend((label.upper(), kernel.phases.fractions())
                               for label, kernel in _kernels(name, run))
    return result


# ----------------------------------------------------------------------
# Table 1 — workload characteristics
# ----------------------------------------------------------------------
class Table1Result(FigureResult):
    def __init__(self):
        self.rows = []  # dicts

    def body(self):
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
        )


def table1_grid(quick):
    """Every workload under hv-sorting."""
    return [
        JobSpec(name, name, _params(name, quick), "hv-sorting")
        for name in TABLE1_WORKLOADS
    ]


def table1_reduce(runs):
    """The Table 1 columns, one row per kernel."""
    result = Table1Result()
    for name, run in runs.items():
        if run is None:
            continue
        attempts = max(run.stats.get("begins", run.commits), 1)
        for label, kernel_result in _kernels(name, run):
            result.rows.append(
                dict(
                    workload=name,
                    kernel=label,
                    shared=run.shared_data_size,
                    rd_tx=run.stats.get("tx_reads", 0) / attempts,
                    wr_tx=run.stats.get("tx_writes", 0) / attempts,
                    tx_per_kernel=run.commits,
                    tx_time=kernel_result.tx_time_fraction(),
                    conflicts=run.abort_rate,
                )
            )
    return result


# ----------------------------------------------------------------------
# Table 2 — launch configurations at STM-Optimized's optimum
# ----------------------------------------------------------------------
class Table2Result(FigureResult):
    def __init__(self):
        self.rows = []  # (workload, best_grid, best_block, cycles)

    def body(self):
        return render_table(
            "Table 2: launch configuration where STM-Optimized is fastest",
            ["workload", "thread-blocks", "threads/block", "cycles"],
            [[w, g, b, c] for w, g, b, c in self.rows],
        )


def table2_grid(quick):
    """Each workload under STM-Optimized at every swept launch geometry."""
    specs = []
    for name, geometries in TABLE2_GEOMETRIES.items():
        for grid, block in geometries[:2] if quick else geometries:
            params = _params(name, quick)
            if name == "lb":
                params.update(grid_blocks=grid, block_threads=block)
            else:
                params.update(grid=grid, block=block)
            specs.append(JobSpec(
                (name, grid, block), name, params, "optimized",
                stm_overrides=configs.egpgv_capacity()))
    return specs


def table2_reduce(runs):
    """The fastest geometry per workload."""
    best = {}  # workload -> (grid, block, cycles), or None while all failed
    for (name, grid, block), run in runs.items():
        best.setdefault(name, None)
        # strict < keeps the original tie-break: the earliest geometry
        # in sweep order wins among equals
        if run is not None and (best[name] is None or run.cycles < best[name][2]):
            best[name] = (grid, block, run.cycles)
    result = Table2Result()
    for name, point in best.items():
        result.rows.append((name, "-", "-", "FAILED") if point is None
                           else (name,) + point)
    return result


# ----------------------------------------------------------------------
# Ablations — the design choices of sections 3.1/4.2, isolated
# ----------------------------------------------------------------------
class AblationResult(FigureResult):
    def __init__(self):
        self.sorting = {}       # livelock study
        self.locklog = {}       # hashed vs flat lock-log comparisons
        self.coalescing = {}    # coalesced vs scattered log cycles
        self.lock_attempts = {} # abort threshold sweep
        self.scheduler = {}     # warp-scheduling policy sensitivity

    def body(self):
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
        )


def sorting_study():
    """Study 1: encounter-time lock-sorting vs none (livelock freedom).

    It drives hand-built devices and inspects runtime objects, so it runs
    serially in the driving process; its plain-data outcome joins the
    ablations' ``runs`` under the key ``"sorting"``.
    """
    from repro.gpu import Device, ProgressError
    from repro.gpu.config import GpuConfig
    from repro.stm import StmConfig, make_runtime
    from repro.stm.runtime.unsorted import (
        UnsortedNoBackoffRuntime,
        crossed_order_kernel,
    )

    sorting = {}
    device = Device(GpuConfig(warp_size=2, num_sms=1, max_steps=40_000))
    data = device.mem.alloc(8, "data")
    runtime = UnsortedNoBackoffRuntime(device, num_locks=8)
    try:
        device.launch(crossed_order_kernel(data, 1), 1, 2, attach=runtime.attach)
        sorting["unsorted_livelocks"] = False
    except ProgressError:
        sorting["unsorted_livelocks"] = True
    device = Device(GpuConfig(warp_size=2, num_sms=1, max_steps=40_000))
    data = device.mem.alloc(8, "data")
    runtime = make_runtime("hv-sorting", device, StmConfig(num_locks=8))
    device.launch(crossed_order_kernel(data, 1), 1, 2, attach=runtime.attach)
    sorting["sorted_commits"] = runtime.stats["commits"]
    return {"sorting": sorting}


def ablations_grid(quick):
    """Studies 2-5, always at quick geometry: hashed vs flat lock-log,
    coalesced vs scattered logs, the lock-attempt threshold, and
    scheduler granularity."""
    ra, km = ("ra", _params("ra", quick=True)), ("km", _params("km", quick=True))
    cells = [(("locklog", label), ra, dict(
        stm_overrides=dict(lock_log_buckets=buckets), verify=False))
        for label, buckets in (("flat", 1), ("hashed", 16))]
    cells += [(("coalescing", label), ra, dict(
        stm_overrides=dict(coalesced_logs=coalesced)))
        for label, coalesced in (("coalesced", True), ("scattered", False))]
    cells += [(("lock_attempts", attempts), km, dict(
        stm_overrides=dict(max_lock_attempts=attempts)))
        for attempts in (1, 4, 16)]
    cells += [(("scheduler", turn), km, dict(
        gpu_overrides=dict(warp_steps_per_turn=turn))) for turn in (1, 8)]
    return [JobSpec(key, workload, params, "hv-sorting", **fields)
            for key, (workload, params), fields in cells]


def ablations_reduce(runs):
    """Isolate the paper's design decisions one at a time."""
    def ratio(numerator, denominator):
        if numerator is GAP or denominator is GAP:
            return GAP
        return max(numerator, 1) / max(denominator, 1)

    def cycles_and_aborts(run):
        return run.cycles, run.abort_rate

    result = AblationResult()
    result.sorting = runs["sorting"]
    flat, hashed = (
        _read(runs[("locklog", label)],
              lambda run: run.stats.get("locklog_comparisons", 0))
        for label in ("flat", "hashed"))
    result.locklog = dict(
        flat_comparisons=flat, hashed_comparisons=hashed,
        ratio=ratio(flat, hashed))
    coalesced, scattered = (
        _read(runs[("coalescing", label)], lambda run: run.cycles)
        for label in ("coalesced", "scattered"))
    result.coalescing = dict(coalesced_cycles=coalesced,
                             scattered_cycles=scattered,
                             ratio=ratio(scattered, coalesced))
    for attempts in (1, 4, 16):
        result.lock_attempts[attempts] = _read(
            runs[("lock_attempts", attempts)], cycles_and_aborts)
    for turn in (1, 8):
        result.scheduler[turn] = _read(runs[("scheduler", turn)],
                                       cycles_and_aborts)
    return result


# ----------------------------------------------------------------------
# The one entry point
# ----------------------------------------------------------------------
#: ``serial()``, when given, runs in the driving process and returns
#: plain data merged into ``runs`` before the reduce
Figure = namedtuple("Figure", "grid reduce serial", defaults=(None,))

FIGURES = {
    "fig2": Figure(fig2_grid, fig2_reduce),
    "fig3": Figure(fig3_grid, fig3_reduce),
    "fig4": Figure(fig4_grid, fig4_reduce),
    "fig5": Figure(fig5_grid, fig5_reduce),
    "table1": Figure(table1_grid, table1_reduce),
    "table2": Figure(table2_grid, table2_reduce),
    "ablations": Figure(ablations_grid, ablations_reduce, sorting_study),
}

#: the paper's tables and figures: what the harness CLI and ``reproduce``
#: regenerate
TARGETS = ("fig2", "fig3", "fig4", "fig5", "table1", "table2")


def runs_of(results):
    """``{key: RunResult}`` of job results in order, ``None`` for a
    failed job: the ``runs`` a reduce takes."""
    return {out.key: None if out.failed else out.run for out in results}


def run_figure(name, quick=False, jobs=None, metrics=None, timeline_dir=None,
               **sweep):
    """Run figure ``name``'s grid and reduce it; returns its result with
    ``failures`` attached.

    ``metrics`` (a :class:`~repro.telemetry.MetricRegistry`) turns on
    per-worker telemetry and merges every worker's registry into it;
    ``timeline_dir`` additionally records one Chrome-trace file per run.
    ``sweep`` (``retries``/``timeout``/``journal``/``recorder``) goes to
    :func:`~repro.harness.sweep.run_sweep` (retry, timeouts,
    checkpoint/resume, the experiment DB — see docs/resilience.md).
    """
    figure = FIGURES[name]
    specs = figure.grid(quick)
    if metrics is not None or timeline_dir is not None:
        for spec in specs:
            spec.telemetry = True
            spec.timeline_dir = timeline_dir
    report = run_sweep(specs, jobs=jobs, metrics=metrics, **sweep)
    runs = runs_of(report.results)
    if figure.serial is not None:
        runs.update(figure.serial())
    result = figure.reduce(runs)
    result.failures = report.failures
    return result
