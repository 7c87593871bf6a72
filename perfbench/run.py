"""The benchmark's one command.

Driver form (what ``BENCHMARK.json`` names)::

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

runs passes of one workload for ``S`` seconds — each pass in a fresh child
process, never fewer than three — checks every output, and prints one JSON
object as the last line: the end-to-end metrics with ``--trace 0``, the
per-layer metrics (one traced pass or more, plus the ``layers`` probe of
differential kernels) with ``--trace 1``.

Without ``--workload`` it is the whole ruler: timed passes of all seven
workloads interleaved round-robin (so slow-host drift hits all alike), then
a traced pass of each and the ``layers`` probe; it prints every metric by
name and unit and writes ``results.json`` and ``trace_<workload>.json``
under ``--out``.  ``--compare A.json B.json`` holds two such result sets
against the bounds in ``BENCHMARK.json``; ``--update-goldens`` rewrites
``perfbench/goldens.json``.

Only children import ``repro``; this process imports nothing outside the
standard library and ``perfbench``.
"""

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if __package__ in (None, ""):
    # run as a script: make ``perfbench`` importable as a package
    sys.path.insert(0, ROOT)

from perfbench.attribution import is_exact, layer_metrics  # noqa: E402
from perfbench.spans import write_chrome_trace  # noqa: E402

SRC = os.path.join(ROOT, "src")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
MIN_PASSES = 3
CHILD_TIMEOUT_S = 150


def load_catalogue():
    """Names, units and bounds: ``BENCHMARK.json`` is their one home."""
    with open(BENCHMARK_JSON) as handle:
        return json.load(handle)


def build():
    """Byte-compile the program and the benchmark once, so no timed child
    pays for it; a no-op when the caches are current."""
    for path in (SRC, HERE):
        compileall.compile_dir(path, quiet=2)


def spawn_child(name, args, trace=0, pass_id=0):
    """Run one child to completion and return its report.

    Children run strictly one at a time.  ``spawn_ts`` is read here, on
    the system-wide monotonic clock, so the child can time its own start-up
    from the moment it was asked for.  A child that dies or prints no
    report yields a report of one failed operation.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # one hash seed for every child: set and dict layouts, and so the
    # host time of walking them, repeat from pass to pass
    env["PYTHONHASHSEED"] = "0"
    command = [
        sys.executable, os.path.join(HERE, "run.py"), "--child", name,
        "--seed", str(args.seed), "--trace", str(trace),
        "--pass-id", str(pass_id),
    ]
    if args.smoke:
        command.append("--smoke")
    if args.goldens:
        command += ["--goldens", os.path.abspath(args.goldens)]
    command += ["--spawn-ts", repr(time.perf_counter())]
    try:
        done = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, timeout=CHILD_TIMEOUT_S)
        problem = None
        if done.returncode != 0:
            problem = "exit %d: %s" % (
                done.returncode, done.stderr.decode("utf-8", "replace")[-2000:])
        else:
            lines = done.stdout.decode("utf-8", "replace").strip().splitlines()
            try:
                return json.loads(lines[-1])
            except (IndexError, ValueError):
                problem = "child printed no report"
    except subprocess.TimeoutExpired:
        problem = "timed out after %d s" % CHILD_TIMEOUT_S
    return {"workload": name, "pass_id": pass_id, "crashed": True,
            "attempted": 1, "failures": ["%s child: %s" % (name, problem)]}


# ----------------------------------------------------------------------
# Summaries
# ----------------------------------------------------------------------
def identity_failures(reports):
    """Pass-to-pass identity: every simulated statistic and every artifact
    hash must equal the first pass's."""
    first = reports[0]
    failures = []
    for report in reports[1:]:
        for field in ("digests", "artifacts"):
            for key, value in first.get(field, {}).items():
                other = report.get(field, {}).get(key)
                if other != value:
                    failures.append("pass %d %s %s: %r != %r" % (
                        report["pass_id"], field, key, other, value))
    return failures


def timing(samples):
    """Median, min, max and sample count.  No percentile beyond the median:
    a handful of passes supports none."""
    return {"median": statistics.median(samples), "min": min(samples),
            "max": max(samples), "n": len(samples), "samples": samples}


def summarise(reports):
    """End-to-end metrics and the failure count of one workload's untraced
    passes (a crashed child contributes one failed operation, no times)."""
    alive = [r for r in reports if not r.get("crashed")]
    failures = [f for r in reports for f in r["failures"]]
    if alive:
        failures += identity_failures(alive)
    attempted = sum(r["attempted"] for r in reports)
    summary = {"attempted": attempted, "failed": min(attempted, len(failures)),
               "failures": failures, "passes": len(reports)}
    # a pass whose operations failed before simulating anything has no rate
    rates = [r["steps"] / r["steps_seconds"] for r in alive if r["steps_seconds"]]
    if rates:
        summary["end_to_end"] = {
            "wall_s": timing([r["wall_s"] for r in alive]),
            "steps_per_s": timing(rates),
            "setup_s": timing([r["setup_s"] for r in alive]),
            "peak_rss_mb": timing([r["peak_rss_mb"] for r in alive]),
        }
    return summary


def end_to_end_value(name, stats):
    """The one number reported per metric: the median over passes, except
    memory, whose worst pass is what a user must provision for."""
    return stats["max"] if name == "peak_rss_mb" else stats["median"]


def print_end_to_end(workload, summary, catalogue):
    for metric in catalogue["end_to_end"]:
        stats = summary["end_to_end"][metric["name"]]
        print("%-15s %-12s %12.4f %-13s median %.4f  min %.4f  max %.4f  n=%d" % (
            workload, metric["name"], end_to_end_value(metric["name"], stats),
            metric["unit"], stats["median"], stats["min"], stats["max"],
            stats["n"]))
    print("%-15s %-12s %12.4f %-13s failed %d of %d attempted" % (
        workload, "failed_share", summary["failed"] / summary["attempted"],
        "ratio", summary["failed"], summary["attempted"]))


def print_per_layer(workload, layers, catalogue):
    for metric in catalogue["per_layer"]:
        if metric["name"] in layers:
            print("%-15s %-45s %16.4f %s" % (
                workload, metric["name"], layers[metric["name"]], metric["unit"]))


def report_failures(failures):
    for failure in failures[:20]:
        print("FAILED: " + failure, file=sys.stderr)


def write_trace(out_dir, workload, traced):
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "trace_%s.json" % workload)
    write_chrome_trace(
        path, [(workload, r["pass_id"], r["spans"]) for r in traced])
    return path


# ----------------------------------------------------------------------
# Driver form: one workload, one JSON line
# ----------------------------------------------------------------------
def run_driver(args, catalogue):
    started = time.perf_counter()
    workload = args.workload

    def time_for_another(reports):
        spent = time.perf_counter() - started
        return spent + spent / len(reports) <= args.seconds

    if not args.trace:
        reports = []
        while len(reports) < MIN_PASSES or time_for_another(reports):
            reports.append(spawn_child(workload, args, pass_id=len(reports)))
        summary = summarise(reports)
        metrics = {}
        if "end_to_end" in summary:
            print_end_to_end(workload, summary, catalogue)
            metrics = {
                m["name"]: {"value": end_to_end_value(
                    m["name"], summary["end_to_end"][m["name"]]),
                    "unit": m["unit"]}
                for m in catalogue["end_to_end"]}
    else:
        probe = spawn_child("layers", args)
        untraced = [spawn_child(workload, args, pass_id=0)]
        traced = []
        while not traced or time_for_another([probe] + untraced + traced):
            traced.append(spawn_child(workload, args, trace=1,
                                      pass_id=1 + len(traced)))
        reports = untraced + traced
        summary = summarise(reports + ([probe] if probe.get("crashed") else []))
        metrics = {}
        if not any(r.get("crashed") for r in reports + [probe]):
            layers = layer_metrics(workload, traced, untraced, probe)
            print_per_layer(workload, layers, catalogue)
            # a layer this workload does not exercise, or cannot see from
            # outside, reads 0
            metrics = {m["name"]: {"value": layers.get(m["name"], 0),
                                   "unit": m["unit"]}
                       for m in catalogue["per_layer"]}
            print("trace: " + write_trace(args.out, workload, traced))
    report_failures(summary["failures"])
    print(json.dumps({
        "correct": summary["failed"] == 0 and bool(metrics),
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }))
    return 0 if metrics and not summary["failed"] else 1


# ----------------------------------------------------------------------
# Whole-ruler form
# ----------------------------------------------------------------------
def run_all(args, catalogue):
    workloads = [w["name"] for w in catalogue["workloads"]]
    reports = {w: [] for w in workloads}
    traced_reports = {}
    for pass_id in range(args.passes):
        for workload in workloads:
            reports[workload].append(spawn_child(workload, args, pass_id=pass_id))
            print("pass %d %-15s %.2f s" % (
                pass_id, workload, reports[workload][-1].get("wall_s", float("nan"))),
                file=sys.stderr)
            if pass_id == args.passes - 1:
                # right after its last timed pass, so the two see one host
                traced_reports[workload] = [spawn_child(
                    workload, args, trace=1, pass_id=args.passes)]
    probe = spawn_child("layers", args)
    results = {
        "schema": 1, "seed": args.seed, "smoke": args.smoke,
        "passes": args.passes, "provenance": probe.get("provenance"),
        "workloads": {},
    }
    failed = 0
    for workload in workloads:
        timed = reports[workload]
        traced = traced_reports[workload]
        summary = summarise(timed)
        # the traced pass is checked like any other, but times nothing
        checked = summarise(timed + traced)
        summary.update(attempted=checked["attempted"], failed=checked["failed"],
                       failures=checked["failures"])
        crashed = any(r.get("crashed") for r in timed + traced + [probe])
        if not crashed:
            layers = layer_metrics(workload, traced, timed[-1:], probe)
            summary["per_layer"] = {
                m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                for m in catalogue["per_layer"] if m["name"] in layers}
            summary["exact"] = {k: v for k, v in layers.items() if is_exact(k)}
            summary["digests"] = timed[0]["digests"]
            summary["trace"] = os.path.basename(
                write_trace(args.out, workload, traced))
            print_end_to_end(workload, summary, catalogue)
            print_per_layer(workload, layers, catalogue)
        failed += summary["failed"] + (1 if crashed else 0)
        report_failures(summary["failures"])
        results["workloads"][workload] = summary
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "results.json")
    with open(path, "w") as handle:
        json.dump(results, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("results: " + path)
    return 1 if failed else 0


def update_goldens(args):
    goldens = spawn_child("goldens", args)
    if goldens.get("crashed"):
        report_failures(goldens["failures"])
        return 1
    path = os.path.join(HERE, "goldens.json")
    with open(path, "w") as handle:
        json.dump(goldens, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("goldens: " + path)
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload (driver form)")
    parser.add_argument("--seed", type=int, default=0,
                        help="0 keeps every workload's own default inputs and "
                        "checks them against goldens.json; any other value "
                        "derives the inputs from it")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="driver form: how long to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="driver form: 0 end-to-end metrics, 1 per-layer")
    parser.add_argument("--passes", type=int, default=5,
                        help="whole-ruler form: timed passes per workload")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny compositions (the benchmark's own test)")
    parser.add_argument("--out", default=None, help="where results and traces go")
    parser.add_argument("--goldens", default=None,
                        help="goldens file (default perfbench/goldens.json)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--update-goldens", action="store_true")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--spawn-ts", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--pass-id", type=int, default=0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.passes < MIN_PASSES and not args.smoke:
        parser.error("--passes must be at least %d" % MIN_PASSES)
    return args


def main(argv=None):
    args = parse_args(argv)
    if args.child:
        from perfbench.passes import child_main

        return child_main(args)
    catalogue = load_catalogue()
    if args.compare:
        from perfbench.compare import compare

        return compare(args.compare[0], args.compare[1], catalogue)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("perfbench: no program to measure: %s/repro is missing" % SRC,
              file=sys.stderr)
        return 2
    names = [w["name"] for w in catalogue["workloads"]]
    if args.workload and args.workload not in names:
        print("perfbench: unknown workload %r; expected one of %s"
              % (args.workload, ", ".join(names)), file=sys.stderr)
        return 2
    build()
    if args.update_goldens:
        return update_goldens(args)
    if args.workload:
        args.out = args.out or os.path.join(HERE, "results", "last")
        return run_driver(args, catalogue)
    args.out = args.out or os.path.join(HERE, "results", "bench")
    return run_all(args, catalogue)


if __name__ == "__main__":
    sys.exit(main())
