"""The benchmark's own test, at ``--smoke`` scale.

Run with ``PYTHONPATH=src python -m pytest perfbench/test_bench_run.py``
(it is not part of the tier-1 suite: ``testpaths`` is ``tests``).
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from perfbench import passes
from perfbench.spans import Tracer, self_times

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    CATALOGUE = json.load(_handle)
WORKLOADS = [w["name"] for w in CATALOGUE["workloads"]]


def run(*argv, cwd=ROOT):
    return subprocess.run(RUN + list(argv), cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, timeout=600)


@pytest.fixture(scope="module")
def ruler(tmp_path_factory):
    """One whole-ruler run: a timed and a traced pass of every workload."""
    out = tmp_path_factory.mktemp("bench")
    done = run("--smoke", "--passes", "1", "--out", str(out))
    assert done.returncode == 0, done.stderr.decode()
    with open(out / "results.json") as handle:
        results = json.load(handle)
    return out, done.stdout.decode(), results


def test_catalogue_names_and_units():
    names = [m["name"] for m in CATALOGUE["end_to_end"] + CATALOGUE["per_layer"]]
    assert len(names) == len(set(names))
    for name in names + WORKLOADS:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name
    assert WORKLOADS == list(passes.WORKLOADS)
    assert "setup_s" in names


def test_every_metric_is_printed_with_its_unit(ruler):
    _out, stdout, results = ruler
    printed = {tuple(line.split()[:2]): line.split() for line in stdout.splitlines()}
    for workload in WORKLOADS:
        for metric in CATALOGUE["end_to_end"]:
            fields = printed[(workload, metric["name"])]
            assert fields[3] == metric["unit"]
        assert (workload, "failed_share") in printed
        for name, entry in results["workloads"][workload]["per_layer"].items():
            assert printed[(workload, name)][3] == entry["unit"]
    # every per-layer metric is stated by the workload that exercises it
    stated = {name for w in WORKLOADS for name in results["workloads"][w]["per_layer"]}
    assert stated == {m["name"] for m in CATALOGUE["per_layer"]}
    assert results["workloads"]["simt_core"]["per_layer"][
        "bench.trace_overhead_ratio"]["value"] > 0


def test_ratio_metrics_appear_only_under_instrumented(ruler):
    _out, _stdout, results = ruler
    for workload in WORKLOADS:
        ratios = [name for name in results["workloads"][workload]["per_layer"]
                  if name.endswith("_ratio") and not name.startswith("bench.")]
        assert (len(ratios) == 9) == (workload == "instrumented"), (workload, ratios)


def test_no_operation_failed(ruler):
    _out, _stdout, results = ruler
    for workload in WORKLOADS:
        summary = results["workloads"][workload]
        assert summary["attempted"] >= 1
        assert summary["failed"] == 0, summary["failures"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_spans_nest_and_self_times_sum_to_the_root(ruler, workload):
    out, _stdout, _results = ruler
    with open(out / ("trace_%s.json" % workload)) as handle:
        events = [e for e in json.load(handle)["traceEvents"] if e["ph"] == "X"]
    by_id = {e["args"]["id"]: e for e in events}
    roots = [e for e in events if e["args"]["parent"] is None]
    assert len(roots) == 1
    slack = 0.2  # microseconds: ts and dur are rounded to 0.1
    for event in events:
        assert event["args"]["workload"] == workload
        if event["args"]["parent"] is None:
            continue
        parent = by_id[event["args"]["parent"]]
        assert parent["ts"] <= event["ts"] + slack
        assert event["ts"] + event["dur"] <= parent["ts"] + parent["dur"] + slack
    total_self = sum(e["args"]["self_us"] for e in events)
    assert total_self == pytest.approx(roots[0]["dur"], rel=1e-3)


def test_self_times_subtract_child_coverage():
    spans = [
        {"id": 0, "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "parent": 0, "start": 1.0, "end": 4.0},
        {"id": 2, "parent": 0, "start": 5.0, "end": 9.0},
        {"id": 3, "parent": 2, "start": 6.0, "end": 7.0},
    ]
    assert self_times(spans) == {0: 3.0, 1: 3.0, 2: 3.0, 3: 1.0}


@pytest.mark.parametrize("workload", ["stm_commit", "stm_serial", "instrumented"])
def test_traced_driver_digest_equals_run_workload(workload):
    for case in passes.sim_cases(workload, smoke=True):
        digest, launch_s = passes.drive_case(case, 0, Tracer())
        assert digest == passes.reference_digest(case, 0), case.key
        assert launch_s > 0


def test_derived_seeds_change_inputs_and_repeat():
    case = passes.sim_cases("stm_commit", smoke=True)[0]
    assert passes.derive_seed(0, 3) is None
    assert passes.derive_seed(7, 3) == passes.derive_seed(7, 3)
    assert passes.derive_seed(7, 3) != passes.derive_seed(8, 3)
    first = passes.reference_digest(case, 7)
    assert first == passes.reference_digest(case, 7)


def test_corrupted_golden_fails_the_run(tmp_path):
    with open(os.path.join(HERE, "goldens.json")) as handle:
        goldens = json.load(handle)
    goldens["smoke"]["stm_commit"]["ra/optimized"]["cycles"] += 1
    corrupted = tmp_path / "goldens.json"
    corrupted.write_text(json.dumps(goldens))
    done = run("--workload", "stm_commit", "--smoke", "--seed", "0", "--seconds",
               "1", "--goldens", str(corrupted), "--out", str(tmp_path))
    last = json.loads(done.stdout.decode().strip().splitlines()[-1])
    assert done.returncode != 0
    assert last["correct"] is False
    cases = len(passes.sim_cases("stm_commit", smoke=True))
    assert last["failed"] == last["attempted"] // cases  # once per pass
    assert "golden mismatch ra/optimized" in done.stderr.decode()


def test_compare_applies_the_bounds(ruler, tmp_path):
    out, _stdout, results = ruler
    same = run("--compare", str(out / "results.json"), str(out / "results.json"))
    assert same.returncode == 0, same.stdout.decode()
    assert "0 outside" in same.stdout.decode()

    slower = json.loads(json.dumps(results))
    stats = slower["workloads"]["stm_commit"]["end_to_end"]["wall_s"]
    stats["median"] *= 2
    stats["samples"] = [2 * s for s in stats["samples"]]
    slower["workloads"]["simt_core"]["exact"]["gpu.cycles"] += 1
    path = tmp_path / "slower.json"
    path.write_text(json.dumps(slower))
    worse = run("--compare", str(out / "results.json"), str(path))
    assert worse.returncode != 0
    rows = worse.stdout.decode()
    assert re.search(r"stm_commit\s+wall_s\s.*outside", rows)
    assert re.search(r"simt_core\s+exact counts\s.*gpu\.cycles", rows)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work", "last"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "simt_core", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=180)
    assert done.returncode != 0
    assert done.stdout.decode().strip() == ""
