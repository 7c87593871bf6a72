"""One pass of one workload, run inside a fresh child process.

``perfbench/run.py`` spawns this module's :func:`child_main` once per pass;
the child sets up (imports ``repro``, loads the goldens, runs one fixed
warm-up case), runs the workload's whole composition once, checks every
output, and prints one JSON object.  Every layer is measured from outside,
by timing calls into public functions of ``repro``.

The seven workloads and why each exists are listed in ``BENCHMARK.json``
and ``perfbench/README.md``; sizes are set so one pass takes ~3 s on a
2-core box, because the driver allows ~20 s per run and a run is at least
three passes.
"""

import functools
import json
import os
import resource
import shutil
import subprocess
import sys
import time

from repro.common.rng import Xorshift32, thread_seed
from repro.expdb.recorder import SweepRecorder, hash_file
from repro.faults.plan import FaultPlan
from repro.faults.sanitizer import StmSanitizer
from repro.gpu import GpuConfig, make_device
from repro.harness import configs
from repro.harness.parallel import JobSpec, run_jobs
from repro.harness.runner import run_workload
from repro.stm import StmConfig, make_runtime
from repro.stm.oracle import check_history
from repro.telemetry import Telemetry
from repro.workloads import make_workload

from perfbench import kernels
from perfbench.attribution import RATIO_METRICS
from perfbench.spans import NullTracer, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDENS_PATH = os.path.join(HERE, "goldens.json")
WORK_ROOT = os.path.join(HERE, ".work")

SIM_WORKLOADS = ("simt_core", "stm_commit", "stm_abort", "stm_serial",
                 "instrumented")
SWEEP_WORKLOADS = ("sweep_cells", "sweep_overhead")
WORKLOADS = SIM_WORKLOADS + SWEEP_WORKLOADS

_GPU_OVERRIDES = {
    "recorded_rr": {"record_schedule": True},
    "policy_random": {"scheduler": "random:3"},
    "shards2": {"sm_shards": 2},
    "devices2": {"devices": 2, "link_model": "uniform:60"},
}


def derive_seed(seed, index):
    """Per-case seed: ``None`` (the workload's own default, which the
    goldens pin) for ``--seed 0``, else a value derived from it."""
    if not seed:
        return None
    return Xorshift32(thread_seed(seed, index)).next_u32() % 0x7FFFFFFE + 1


def host_calib_ns():
    """A fixed pure-Python loop, in ns per iteration: a diagnostic of how
    fast the host is right now.  Never used to normalise anything."""
    iters = 200_000
    started = time.perf_counter()
    total = 0
    for i in range(iters):
        total += i & 7
    return (time.perf_counter() - started) / iters * 1e9


# ----------------------------------------------------------------------
# Sim cases: one (workload, variant[, optional layer]) run
# ----------------------------------------------------------------------
class SimCase:
    """Plain description of one simulated run.  ``seed_index`` keys the
    derived seed, so a bare case and its instrumented siblings share one."""

    def __init__(self, workload, variant, params, seed_index, layer=None,
                 stm_overrides=None, fixed_seed=False, tag=""):
        self.workload = workload
        self.variant = variant
        self.params = dict(params)
        self.seed_index = seed_index
        self.layer = layer
        self.stm_overrides = stm_overrides
        self.fixed_seed = fixed_seed
        self.key = "%s%s/%s" % (workload, tag, variant) + (
            "+" + layer if layer else "")

    def build(self, seed):
        """``(workload object, GpuConfig, run_workload keyword arguments)``."""
        params = dict(self.params)
        case_seed = None if self.fixed_seed else derive_seed(seed, self.seed_index)
        if case_seed is not None:
            params["seed"] = case_seed
        gpu = configs.bench_gpu()
        for attr, value in _GPU_OVERRIDES.get(self.layer, {}).items():
            setattr(gpu, attr, value)
        kwargs = dict(num_locks=configs.DEFAULT_NUM_LOCKS,
                      stm_overrides=self.stm_overrides)
        if self.layer == "registry":
            kwargs["telemetry"] = Telemetry()
        elif self.layer == "timeline":
            kwargs["telemetry"] = Telemetry(timeline=True)
        elif self.layer == "sanitizer":
            kwargs["sanitizer"] = StmSanitizer()
        elif self.layer == "injector":
            kwargs["fault_plan"] = FaultPlan([])
        elif self.layer == "oracle":
            kwargs["check_oracle"] = True
        return make_workload(self.workload, **params), gpu, kwargs


def _scaled(name, mult=1, **updates):
    params = configs.bench_workload_params(name)
    for key in ("txs_per_thread", "segments_per_thread"):
        if key in params:
            params[key] *= mult
    params.update(updates)
    return params


#: a uniform ledger over a small account pool: abort rate 0.55-0.8 like the
#: skewed bench ledger, but its step count moves ~2% between seeds where
#: skew 0.8 moves it ~35% (one hot account makes the retry chain chaotic)
_LG_HOT = dict(num_accounts=512, skew=0.0)


def sim_cases(workload, smoke):
    """The (workload, variant) roster of one sim workload."""
    index = {name: i for i, name in enumerate(
        ("ra", "ht", "gn", "eb", "km", "lg", "cns"))}
    cases = []

    def add(name, variant, params, **kw):
        cases.append(SimCase(name, variant, params, index[name], **kw))

    if smoke:
        tiny = configs.test_workload_params
        if workload == "stm_commit":
            for name in ("ra", "ht"):
                for variant in ("optimized", "hv-backoff"):
                    add(name, variant, tiny(name))
        elif workload == "stm_abort":
            for variant in ("optimized", "hv-backoff"):
                add("lg", variant, dict(tiny("lg"), num_accounts=32, skew=0.0))
                add("cns", variant, tiny("cns"))
            add("lg", "optimized", dict(tiny("lg"), num_accounts=16, skew=0.0),
                tag="256")
        elif workload == "stm_serial":
            add("ra", "cgl", tiny("ra"))
            add("ht", "vbv", tiny("ht"))
            add("ra", "egpgv", tiny("ra"), stm_overrides=configs.egpgv_capacity())
        elif workload == "instrumented":
            for name in ("lg", "ra"):
                add(name, "optimized", tiny(name))
                for layer in RATIO_METRICS:
                    add(name, "optimized", tiny(name), layer=layer)
        return cases

    if workload == "stm_commit":
        for name in ("ra", "ht", "gn", "eb"):
            for variant in ("optimized", "hv-sorting", "tbv-sorting", "hv-backoff"):
                add(name, variant, _scaled(name))
    elif workload == "stm_abort":
        for variant in ("optimized", "hv-backoff", "tbv-sorting"):
            add("lg", variant, _scaled("lg", 2, **_LG_HOT))
            add("cns", variant, _scaled("cns"))
        add("lg", "optimized", _scaled("lg", 2, num_accounts=256, skew=0.0),
            tag="256")
        add("ra", "tbv-sorting", _scaled("ra", 2))
        # km (abort rate 0.95) keeps its default point set for every --seed:
        # its step count is chaotic in its inputs (x2 between seeds), which
        # would put seed-to-seed spread, not host time, into wall_s
        add("km", "optimized", _scaled("km"), fixed_seed=True)
    elif workload == "stm_serial":
        half = dict(grid=8)
        add("ra", "cgl", _scaled("ra", **half))
        add("eb", "cgl", _scaled("eb", **half))
        add("ht", "vbv", _scaled("ht", **half))
        add("gn", "vbv", _scaled("gn", **half))
        add("lg", "vbv", _scaled("lg", **half))
        for name in ("ra", "ht"):
            add(name, "egpgv", configs.egpgv_workload_params(name),
                stm_overrides=configs.egpgv_capacity())
    elif workload == "instrumented":
        for name, params in (("lg", _scaled("lg", **_LG_HOT)),
                             ("ra", _scaled("ra"))):
            add(name, "optimized", params)
            for layer in RATIO_METRICS:
                add(name, "optimized", params, layer=layer)
    return cases


def run_digest(run):
    """The five simulated statistics the goldens pin, from a RunResult."""
    return {
        "steps": sum(k.steps for k in run.kernel_results),
        "cycles": run.cycles,
        "commits": run.commits,
        "aborts": run.stats.get("aborts", 0),
        "mem_txns": sum(k.mem_txns for k in run.kernel_results),
    }


def reference_digest(case, seed):
    """The digest ``run_workload`` itself gives for ``case`` — what the
    goldens record and what the benchmark's own driver must reproduce."""
    workload, gpu, kwargs = case.build(seed)
    return run_digest(run_workload(workload, case.variant, gpu, **kwargs))


def drive_case(case, seed, tracer):
    """Run ``case`` through the public sequence ``run_workload`` uses —
    ``make_device`` → ``setup`` → ``make_runtime`` → ``launch`` per
    ``KernelSpec`` → ``verify`` → ``check_history`` — with a span at each
    boundary.  Returns ``(digest, seconds inside Device.launch)``."""
    workload, gpu, kwargs = case.build(seed)
    telemetry = kwargs.get("telemetry")
    sanitizer = kwargs.get("sanitizer")
    fault_plan = kwargs.get("fault_plan")
    check_oracle = kwargs.get("check_oracle", False)
    with tracer.span("case", case=case.key) as case_span:
        with tracer.span("gpu.make_device"):
            device = make_device(gpu, telemetry=telemetry)
        with tracer.span("workloads.setup"):
            workload.setup(device)
        with tracer.span("stm.make_runtime"):
            overrides = dict(case.stm_overrides or {})
            overrides.setdefault("num_locks", kwargs["num_locks"])
            overrides.setdefault("shared_data_size", workload.shared_data_size)
            if check_oracle:
                overrides["record_history"] = True
            runtime = make_runtime(case.variant, device, StmConfig(**overrides))
        if telemetry is not None and runtime.tracer is None:
            runtime.tracer = telemetry
        if sanitizer is not None:
            sanitizer.bind(runtime)
        if fault_plan is not None:
            fault_plan.arm(device)
        initial = list(device.mem.words) if check_oracle else None

        launch_s = 0.0
        results = []
        for spec in workload.kernels():
            started = time.perf_counter()
            with tracer.span("gpu.launch", kernel=spec.name) as span:
                result = device.launch(spec.kernel, spec.grid, spec.block,
                                       args=spec.args, attach=runtime.attach)
            launch_s += time.perf_counter() - started
            results.append(result)
            if span.args is not None:
                span.args.update(steps=result.steps, cycles=result.cycles,
                                 mem_txns=result.mem_txns)

        stats = runtime.stats
        if telemetry is not None:
            runtime.publish_metrics(telemetry.registry)
            telemetry.publish_memory(device.mem)
        if sanitizer is not None:
            sanitizer.check_kernel_exit()
            if sanitizer.violations:
                raise AssertionError(
                    "%s: sanitizer: %s" % (case.key, sanitizer.violations[0]))
        with tracer.span("workloads.verify"):
            workload.verify(device, runtime)
            expected = workload.expected_commits()
            if expected is not None and stats["commits"] != expected:
                raise AssertionError(
                    "%s commits %d != expected %d"
                    % (case.key, stats["commits"], expected))
        if check_oracle:
            with tracer.span("stm.check_history"):
                check_history(runtime.history, initial, device.mem)

        digest = {
            "steps": sum(r.steps for r in results),
            "cycles": sum(r.cycles for r in results),
            "commits": stats["commits"],
            "aborts": stats["aborts"],
            "mem_txns": sum(r.mem_txns for r in results),
        }
        if case_span.args is not None:
            phases = {}
            for result in results:
                for phase, cycles in result.phases.as_dict().items():
                    phases[phase] = phases.get(phase, 0) + cycles
            case_span.args.update(
                digest, begins=stats["begins"],
                lock_acquire_failures=stats["lock_acquire_failures"],
                phases=phases, launch_s=launch_s)
    return digest, launch_s


# ----------------------------------------------------------------------
# simt_core: bare kernels, no STM
# ----------------------------------------------------------------------
def simt_cases(seed, smoke):
    """``[(key, kernel, grid, block, smem_words, setup)]``; ``setup(device)``
    allocates, and returns ``(kernel args, check(device, result))``."""
    grid, block, scale = (4, 32, 1) if smoke else (28, 128, 16)
    threads = grid * block
    derived = derive_seed(seed, 100) or 0
    # strides coprime with the thread count (2^k * 7): each thread owns one
    # column of the array, so read-modify-write never races
    stride = (37, 41, 43, 47, 53, 59, 61, 67)[derived % 8]
    offset = derived % threads
    rows = 4

    def stream(stride):
        iters = 5 * scale

        def setup(device):
            words = threads * rows
            base = device.mem.alloc(words, "stream", fill=7)

            def check(device, result):
                total = sum(device.mem.snapshot(base, words))
                _expect("stream sum", total, 7 * words + threads * iters)

            return (base, threads, rows, iters, stride, offset), check

        return setup

    def spin_setup(device):
        iters = 40 * scale

        def check(device, result):
            # one issue round per iteration plus the retiring one
            _expect("spin steps", result.steps, (threads // 32) * (iters + 1))

        return (iters, 32), check

    def atomic_setup(device):
        slots, iters = 4, 12 * scale
        base = device.mem.alloc(slots, "counters")

        def check(device, result):
            _expect("atomic sum", sum(device.mem.snapshot(base, slots)),
                    threads * iters)

        return (base, slots, iters, offset), check

    def divergent_setup(device):
        iters = 6 * scale
        base = device.mem.alloc(threads, "diverge", fill=1)

        def check(device, result):
            _expect("divergent sum", sum(device.mem.snapshot(base, threads)),
                    threads + (threads // 2) * iters)

        return (base, iters, offset), check

    def barrier_setup(device):
        iters = 5 * scale
        out = device.mem.alloc(threads, "barrier_out")

        def check(device, result):
            got = sum(device.mem.snapshot(out, threads))
            # every thread sums its right neighbour's deposits, and every
            # thread is some thread's right neighbour
            want = sum(tid + i + offset for tid in range(threads)
                       for i in range(iters))
            _expect("barrier sum", got, want)

        return (block, iters, offset, out), check

    return [
        ("spin", kernels.spin_kernel, grid, block, 0, spin_setup),
        ("stream_coalesced", kernels.stream_kernel, grid, block, 0, stream(1)),
        ("stream_scattered", kernels.stream_kernel, grid, block, 0, stream(stride)),
        ("hot_atomics", kernels.hot_atomic_kernel, grid, block, 0, atomic_setup),
        ("divergent", kernels.divergent_kernel, grid, block, 0, divergent_setup),
        ("barrier_smem", kernels.barrier_kernel, grid, block, block, barrier_setup),
    ]


def _expect(what, got, want):
    if got != want:
        raise AssertionError("%s: %r != %r" % (what, got, want))


def drive_simt(key, kernel, grid, block, smem_words, setup, tracer):
    with tracer.span("case", case=key) as case_span:
        with tracer.span("gpu.make_device"):
            device = make_device(GpuConfig(num_sms=14))
        with tracer.span("workloads.setup"):
            args, check = setup(device)
        started = time.perf_counter()
        with tracer.span("gpu.launch", kernel=key) as span:
            result = device.launch(kernel, grid, block, args=args,
                                   smem_words=smem_words)
        launch_s = time.perf_counter() - started
        with tracer.span("workloads.verify"):
            check(device, result)
        digest = {"steps": result.steps, "cycles": result.cycles, "commits": 0,
                  "aborts": 0, "mem_txns": result.mem_txns}
        if span.args is not None:
            span.args.update(steps=result.steps, cycles=result.cycles,
                             mem_txns=result.mem_txns)
            case_span.args.update(
                digest, phases=result.phases.as_dict(), launch_s=launch_s)
    return digest, launch_s


# ----------------------------------------------------------------------
# Pass bookkeeping
# ----------------------------------------------------------------------
class PassLog:
    """What one pass reports: operations attempted/failed, the digest of
    every case, artifact hashes, and the simulated-step accounting behind
    ``steps_per_s``."""

    def __init__(self, workload, seed, smoke, goldens):
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.goldens = goldens
        self.attempted = 0
        self.failures = []
        self.digests = {}
        self.artifacts = {}
        self.steps = 0
        self.steps_seconds = 0.0

    def operation(self, key, fn):
        """Run ``fn`` as one counted operation; an exception fails it."""
        self.attempted += 1
        try:
            fn()
        except Exception as exc:  # noqa: BLE001 - boundary: count, report, go on
            self.failures.append("%s: %s: %s" % (key, type(exc).__name__, exc))

    def record(self, key, digest):
        """File ``digest`` and, at seed 0, hold it against the goldens."""
        self.digests[key] = digest
        if self.goldens is None:
            return
        golden = self.goldens.get(key)
        if golden is None:
            raise AssertionError("no golden for %s (run --update-goldens)" % key)
        if digest != golden:
            raise AssertionError(
                "golden mismatch %s: %r != %r" % (key, digest, golden))


def load_goldens(path, workload, seed, smoke):
    """Goldens of ``workload`` at this scale; ``None`` when ``--seed`` is not
    0 (then passes are only held against each other)."""
    if seed:
        return None
    with open(path) as handle:
        goldens = json.load(handle)
    return goldens["smoke" if smoke else "full"].get(workload, {})


# ----------------------------------------------------------------------
# The seven workloads
# ----------------------------------------------------------------------
def pass_sim(log, tracer):
    if log.workload == "simt_core":
        runs = [(spec[0], functools.partial(drive_simt, *spec, tracer=tracer))
                for spec in simt_cases(log.seed, log.smoke)]
    else:
        runs = [(case.key, functools.partial(drive_case, case, log.seed, tracer))
                for case in sim_cases(log.workload, log.smoke)]
    for key, drive in runs:
        def op(key=key, drive=drive):
            digest, launch_s = drive()
            log.steps += digest["steps"]
            log.steps_seconds += launch_s
            log.record(key, digest)
        log.operation(key, op)


def overhead_specs(seed, smoke):
    """Tiny jobs with distinct fingerprints (distinct workload seeds)."""
    names = ("ra", "ht", "eb", "gn", "lg")
    variants = ("optimized", "hv-sorting", "tbv-sorting", "hv-backoff")
    count = 8 if smoke else 40
    specs = []
    for i in range(count):
        name = names[i % len(names)]
        params = configs.test_workload_params(name)
        params["seed"] = derive_seed(seed, 200 + i) or 1000 + i
        specs.append(JobSpec(i, name, params, variants[i % len(variants)]))
    return specs


def cell_key(spec):
    return "cell%d:%s/%s" % (spec.key, spec.workload, spec.variant)


def pass_sweep_overhead(log, tracer, workdir):
    """The same tiny sweep through ``run_jobs`` six ways; what differs
    between the modes is only pool, supervisor, journal and expdb work."""
    specs = overhead_specs(log.seed, log.smoke)
    journal_j1 = os.path.join(workdir, "sup_j1.journal")
    journal_j2 = os.path.join(workdir, "sup_j2.journal")
    db_path = os.path.join(workdir, "overhead.sqlite")
    modes = (
        ("serial", dict(jobs=1)),
        ("pool_j2", dict(jobs=2)),
        ("supervised_j1", dict(jobs=1, journal=journal_j1)),
        ("supervised_j2", dict(jobs=2, journal=journal_j2)),
        ("journal_resume", dict(jobs=2, journal=journal_j2)),
        ("serial_recorded", dict(jobs=1)),
    )
    # first use of each workload class pays lazy imports and cold caches;
    # keep that out of the serial mode every other mode is differenced against
    with tracer.span("harness.warm"):
        run_jobs(specs[:5], jobs=1)
    reference = None
    for mode, kwargs in modes:
        if mode == "serial_recorded":
            kwargs["recorder"] = SweepRecorder(db_path, "perfbench-overhead")
        started = time.perf_counter()
        with tracer.span("harness." + mode, cells=len(specs)) as span:
            results = run_jobs(specs, **kwargs)
        elapsed = time.perf_counter() - started
        if mode == "serial_recorded" and span.args is not None:
            span.args["db_bytes"] = os.path.getsize(db_path)
        digests = []
        for spec, result in zip(specs, results):
            def op(spec=spec, result=result):
                digest = run_digest(result.unwrap())
                digests.append(digest)
                if mode == "serial":
                    log.record(cell_key(spec), digest)
            log.operation("%s/%s" % (mode, cell_key(spec)), op)
        if mode != "journal_resume":
            # a resumed sweep replays results, it simulates nothing
            log.steps += sum(d["steps"] for d in digests)
            log.steps_seconds += elapsed
        if reference is None:
            reference = digests
        elif digests != reference:
            log.failures.append("%s: results differ from serial" % mode)


SWEEP_JOBS = 2


def cli_commands(seed, smoke):
    """What a user types: ``[(span name, argv after "python -m repro",
    artifacts to hash)]``.  Relative paths: each pass runs in its own
    scratch directory so artifacts cannot embed a pass-specific path."""
    seed_args = ["--seed", str(derive_seed(seed, 300))] if seed else []

    def sweep(stem):
        return ["--jobs", str(SWEEP_JOBS), "--resume", stem + ".journal",
                "--expdb", stem + ".sqlite", "--out", stem]

    targets = "fig5" if smoke else "fig5,table1"
    variants = "optimized,cgl" if smoke else "optimized,vbv,cgl"
    return [
        ("common.spawn_import", ["--help"], []),
        ("harness.reproduce_smoke",
         ["reproduce", "--smoke", "--jobs", "1", "--targets", targets,
          "--out", "rep", "--db", "rep.sqlite"],
         ["rep/manifest.json"] + ["rep/%s.txt" % t for t in targets.split(",")]),
        ("service.sweep",
         ["service", "--load", "2" if smoke else "8", "--skew", "0,0.8",
          "--duration-cycles", "20000" if smoke else "200000"]
         + seed_args + sweep("svc"),
         ["svc/service_summary.json"]),
        ("multigpu.sweep",
         ["multigpu", "--variants", variants, "--remote-frac", "0,0.3",
          "--link-latency", "40" if smoke else "40,160"]
         + seed_args + sweep("mg"),
         ["mg/survival_map.json", "mg/survival_map.txt"]),
        ("faults.byz_sweep",
         ["byz", "--behaviors", "lie_validation", "--variants", variants]
         + sweep("byz"),
         ["byz/byz_matrix.json"]),
    ]


def pass_sweep_cells(log, tracer, workdir):
    """The CLIs as subprocesses, with fresh --out / journal / DB paths."""
    for name, argv, artifacts in cli_commands(log.seed, log.smoke):
        def op(name=name, argv=argv, artifacts=artifacts):
            started = time.perf_counter()
            with tracer.span(name, argv=" ".join(argv)) as span:
                done = subprocess.run(
                    [sys.executable, "-m", "repro"] + argv, cwd=workdir,
                    stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=150)
            elapsed = time.perf_counter() - started
            if done.returncode != 0:
                raise RuntimeError("exit %d: %s" % (
                    done.returncode, done.stderr.decode("utf-8", "replace")[-400:]))
            for rel in artifacts:
                log.artifacts[rel] = hash_file(os.path.join(workdir, rel))[0]
            if name == "multigpu.sweep":
                # the one sweep whose artifacts state simulated steps
                with open(os.path.join(workdir, "mg/survival_map.json")) as handle:
                    cells = json.load(handle)["cells"]
                log.steps += sum(cell["steps"] for cell in cells)
                log.steps_seconds += elapsed
            if span.args is not None:
                span.args.update(_cli_counts(name, workdir))
        log.operation(name, op)


def _cli_counts(name, workdir):
    """Counts a finished CLI left behind, for the traced pass."""
    if name != "service.sweep":
        return {}
    with open(os.path.join(workdir, "svc/run_info.json")) as handle:
        cells = json.load(handle)["cells"]
    with open(os.path.join(workdir, "svc/service_summary.json")) as handle:
        batches = sum(c["batches"] for c in json.load(handle)["cells"])
    return {"cells": len(cells), "batches": batches, "jobs": SWEEP_JOBS,
            "cells_s_sum": sum(c["wall_seconds"] for c in cells.values())}


# ----------------------------------------------------------------------
# Child entry
# ----------------------------------------------------------------------
def warm_up():
    """One fixed test-geometry case, so lazy imports and first-call costs
    land in ``setup_s`` and not in the first timed operation."""
    run_workload(make_workload("ra", **configs.test_workload_params("ra")),
                 "optimized", configs.bench_gpu(),
                 num_locks=configs.DEFAULT_NUM_LOCKS)


def run_pass(workload, seed, smoke, traced, spawn_ts, goldens_path, pass_id):
    """Set up, run one pass, return the child's report as plain data."""
    tracer = Tracer() if traced else NullTracer()
    root = tracer.open("child", start=spawn_ts, workload=workload)
    with tracer.span("bench.setup"):
        goldens = load_goldens(goldens_path, workload, seed, smoke)
        warm_up()
    with tracer.span("bench.calib"):
        calib = [host_calib_ns()]
    log = PassLog(workload, seed, smoke, goldens)
    workdir = os.path.join(WORK_ROOT, "%d-%d" % (os.getpid(), pass_id))

    started = time.perf_counter()
    setup_s = started - spawn_ts
    with tracer.span("pass"):
        if workload in SIM_WORKLOADS:
            pass_sim(log, tracer)
        else:
            os.makedirs(workdir)
            try:
                if workload == "sweep_cells":
                    pass_sweep_cells(log, tracer, workdir)
                else:
                    pass_sweep_overhead(log, tracer, workdir)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
    wall_s = time.perf_counter() - started

    with tracer.span("bench.calib"):
        calib.append(host_calib_ns())
    tracer.close(root)
    rss_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return dict(
        workload=workload, pass_id=pass_id, traced=traced,
        wall_s=wall_s, setup_s=setup_s, peak_rss_mb=rss_kb / 1024.0,
        steps=log.steps, steps_seconds=log.steps_seconds,
        attempted=log.attempted, failures=log.failures,
        digests=log.digests, artifacts=log.artifacts, host_calib_ns=calib,
        spans=[span.as_dict() for span in tracer.spans],
    )


def make_goldens():
    """Seed-0 digests of every sim case at both scales, taken through
    ``run_workload`` / ``execute_job`` — not through this file's driver."""
    from repro.harness.parallel import execute_job

    goldens = {}
    for scale, smoke in (("full", False), ("smoke", True)):
        section = goldens[scale] = {}
        section["simt_core"] = {
            spec[0]: drive_simt(*spec, tracer=NullTracer())[0]
            for spec in simt_cases(0, smoke)
        }
        for workload in SIM_WORKLOADS[1:]:
            section[workload] = {
                case.key: reference_digest(case, 0)
                for case in sim_cases(workload, smoke)
            }
        section["sweep_overhead"] = {
            cell_key(spec): run_digest(execute_job(spec).unwrap())
            for spec in overhead_specs(0, smoke)
        }
    return goldens


def child_main(args):
    """``run.py --child``: one job, one JSON object on the last line."""
    if args.child == "goldens":
        report = make_goldens()
    elif args.child == "layers":
        from perfbench.layers import run_probe

        report = run_probe(args.spawn_ts, args.smoke)
    else:
        report = run_pass(args.child, args.seed, args.smoke, bool(args.trace),
                          args.spawn_ts, args.goldens or GOLDENS_PATH,
                          args.pass_id)
    sys.stdout.write(json.dumps(report) + "\n")
    return 0
