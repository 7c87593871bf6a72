"""Per-layer metrics from the traced pass.

Pure functions over the span dicts a traced child reports (name, start,
end, parent, args with the counts taken at the same boundary).  Which
end-to-end metric each of these should move, on which workload, is written
down in ``perfbench/README.md`` before anything is optimised.
"""

import math
import statistics

from perfbench.spans import total_by_name

PHASES = ("native", "init", "buffering", "consistency", "locks", "commit",
          "aborted")

#: ``instrumented``: optional layer -> its ratio metric, in report order
#: (this module must not import ``repro``: the parent process uses it)
RATIO_METRICS = {
    "registry": "telemetry.registry_ratio",
    "timeline": "telemetry.timeline_ratio",
    "sanitizer": "faults.sanitizer_ratio",
    "injector": "faults.injector_empty_ratio",
    "oracle": "stm.oracle_history_ratio",
    "recorded_rr": "sched.recorded_rr_ratio",
    "policy_random": "sched.policy_random_ratio",
    "shards2": "gpu.shards2_ratio",
    "devices2": "multigpu.devices2_ratio",
}

#: stm_abort: two cases that differ only in how often they abort
ABORT_PAIR = ("lg/optimized", "lg256/optimized")

#: sweep_cells: span name -> the metric holding its seconds
CLI_METRICS = {
    "common.spawn_import": "common.spawn_import_s",
    "harness.reproduce_smoke": "harness.reproduce_smoke_s",
    "service.sweep": "service.sweep_s",
    "multigpu.sweep": "multigpu.sweep_s",
    "faults.byz_sweep": "faults.byz_sweep_s",
}


def _duration(span):
    return span["end"] - span["start"]


def sim_metrics(workload, report):
    """gpu / stm / workloads metrics of one traced sim pass."""
    spans = report["spans"]
    launches = [s for s in spans if s["name"] == "gpu.launch"]
    cases = [s for s in spans if s["name"] == "case"]
    by_key = {c["args"]["case"]: c for c in cases}
    launch_s = sum(_duration(s) for s in launches)
    steps = sum(s["args"]["steps"] for s in launches)
    out = {
        "gpu.launch_s": launch_s,
        "gpu.steps": steps,
        "gpu.cycles": sum(s["args"]["cycles"] for s in launches),
        "gpu.mem_txns": sum(s["args"]["mem_txns"] for s in launches),
        "gpu.ns_per_step": launch_s / steps * 1e9,
        "workloads.setup_s": total_by_name(spans, "workloads.setup"),
        "workloads.verify_s": total_by_name(spans, "workloads.verify"),
    }
    commits = sum(c["args"]["commits"] for c in cases)
    aborts = sum(c["args"]["aborts"] for c in cases)
    begins = sum(c["args"].get("begins", 0) for c in cases)
    out["stm.commits"] = commits
    out["stm.aborts"] = aborts
    out["stm.lock_acquire_failures"] = sum(
        c["args"].get("lock_acquire_failures", 0) for c in cases)
    if begins:
        out["stm.commit_per_begin"] = commits / begins
    for phase in PHASES:
        out["stm.phase_cycles." + phase] = sum(
            c["args"]["phases"].get(phase, 0) for c in cases)
    if commits:
        out["stm.ns_per_commit"] = launch_s * 1e9 / commits
    if workload == "stm_abort":
        # the same ledger transactions over 512 and over 256 accounts commit
        # equally often; what the smaller pool adds is abort attempts only
        few, many = (by_key[key]["args"] for key in ABORT_PAIR)
        if many["aborts"] != few["aborts"]:
            out["stm.ns_per_abort_attempt"] = (
                (many["launch_s"] - few["launch_s"]) * 1e9
                / (many["aborts"] - few["aborts"]))
    if workload == "instrumented":
        out.update(instrument_ratios(cases))
    return out


def instrument_ratios(cases):
    """Instrumented / bare wall of the same case, geometric mean over the
    base cases (lg and ra).  Base: the bare case of the same pass."""
    walls = {c["args"]["case"]: _duration(c) for c in cases}
    out = {}
    for layer, metric in RATIO_METRICS.items():
        ratios = [
            walls[key] / walls[key.split("+")[0]]
            for key in walls if key.endswith("+" + layer)
        ]
        if ratios:
            out[metric] = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
    return out


def sweep_overhead_metrics(report):
    """Pool / supervisor / journal / expdb cost, each mode differenced
    against the serial one (which is a plain loop over ``execute_job``)."""
    modes = {s["name"][len("harness."):]: s for s in report["spans"]
             if s["name"].startswith("harness.")}  # "warm" is not a mode
    seconds = {mode: _duration(span) for mode, span in modes.items()}
    cells = modes["serial"]["args"]["cells"]
    serial = seconds["serial"]
    per_cell_ms = 1e3 / cells
    # worker-seconds of a two-worker mode: both cores are the sweep's
    sup_j2 = 2 * seconds["supervised_j2"]
    return {
        "harness.cells_s_sum": serial,
        "harness.pool_speedup_j2": serial / seconds["pool_j2"],
        "harness.pool_overhead_ms_per_cell":
            (2 * seconds["pool_j2"] - serial) * per_cell_ms,
        "harness.supervisor_overhead_ms_per_cell.j1":
            (seconds["supervised_j1"] - serial) * per_cell_ms,
        "harness.supervisor_overhead_ms_per_cell.j2": (sup_j2 - serial) * per_cell_ms,
        "harness.journal_resume_ms_per_cell":
            seconds["journal_resume"] * per_cell_ms,
        "harness.overhead_share": (sup_j2 - serial) / sup_j2,
        "expdb.record_ms_per_cell":
            (seconds["serial_recorded"] - serial) * per_cell_ms,
        "expdb.db_bytes": modes["serial_recorded"]["args"]["db_bytes"],
    }


def sweep_cells_metrics(report):
    """Seconds per CLI invocation; cell time is visible from outside only
    for the service sweep (its run_info.json), so the overhead share is
    that sweep's."""
    out = {}
    for span in report["spans"]:
        metric = CLI_METRICS.get(span["name"])
        if metric:
            out[metric] = _duration(span)
        if span["name"] == "service.sweep" and "cells_s_sum" in span["args"]:
            args = span["args"]
            worker_s = args["jobs"] * _duration(span)
            out["harness.cells_s_sum"] = args["cells_s_sum"]
            out["harness.overhead_share"] = (
                worker_s - args["cells_s_sum"]) / worker_s
            if args["batches"]:
                out["service.ms_per_batch"] = _duration(span) * 1e3 / args["batches"]
    return out


def layer_metrics(workload, traced, untraced, probe):
    """Every per-layer metric one workload can state.

    ``traced`` / ``untraced`` are lists of child reports of the same
    workload run next to each other (so host drift cancels in their ratio),
    ``probe`` the ``layers`` child's report.  Times are medians over the
    traced passes; counts are exact and come from the first.
    """
    per_pass = []
    for report in traced:
        if workload == "sweep_overhead":
            per_pass.append(sweep_overhead_metrics(report))
        elif workload == "sweep_cells":
            per_pass.append(sweep_cells_metrics(report))
        else:
            per_pass.append(sim_metrics(workload, report))
    out = {}
    for name in per_pass[0]:
        values = [metrics[name] for metrics in per_pass if name in metrics]
        out[name] = values[0] if is_exact(name) else statistics.median(values)
    out.update(probe["metrics"])
    traced_wall_s = statistics.median(r["wall_s"] for r in traced)
    out["bench.traced_wall_s"] = traced_wall_s
    out["bench.trace_overhead_ratio"] = (
        traced_wall_s / statistics.median(r["wall_s"] for r in untraced))
    out["bench.host_calib_ns"] = statistics.median(
        ns for r in traced + untraced + [probe] for ns in r["host_calib_ns"])
    return out


def is_exact(name):
    """Counts the simulator makes: they repeat exactly, so two commits
    compare exactly and a moved one is a correctness failure."""
    return name in ("gpu.steps", "gpu.cycles", "gpu.mem_txns", "stm.commits",
                    "stm.aborts", "stm.lock_acquire_failures",
                    "stm.commit_per_begin") or name.startswith("stm.phase_cycles.")
