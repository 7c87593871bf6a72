"""``--compare A.json B.json``: hold two result sets against the bounds.

One row per (workload, end-to-end metric): both medians, the change of B
against A, and a verdict.

* ``within``     — B is no worse than A by more than the metric's bound;
* ``outside``    — it is worse by more than the bound;
* ``unresolved`` — the pass-to-pass spread of either side is wider than the
  bound, so the comparison cannot tell (unless every pass of B reads better
  than every pass of A, which is ``within`` whatever the spread).

``failed_share`` may not rise at all, and every exact count (simulated
steps, cycles, commits, aborts, phase cycles) must be identical.  Exits
non-zero on any ``outside``.
"""

import json
import statistics


def spread(samples):
    """Quartile distance as a share of the median (full range when there
    are too few samples for quartiles)."""
    median = statistics.median(samples)
    if len(samples) >= 4:
        q1, _q2, q3 = statistics.quantiles(samples, n=4)
        return (q3 - q1) / median
    return (max(samples) - min(samples)) / median


def verdict(metric, a, b):
    """``(relative change of B against A, verdict)``; positive = worse."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    worse_by = sign * (b["median"] - a["median"]) / a["median"]
    if sign > 0:
        all_better = max(b["samples"]) < min(a["samples"])
    else:
        all_better = min(b["samples"]) > max(a["samples"])
    if all_better:
        return worse_by, "within"
    if max(spread(a["samples"]), spread(b["samples"])) > metric["bound"]:
        return worse_by, "unresolved"
    return worse_by, "outside" if worse_by > metric["bound"] else "within"


def compare(path_a, path_b, catalogue):
    with open(path_a) as handle:
        set_a = json.load(handle)
    with open(path_b) as handle:
        set_b = json.load(handle)
    outside = 0
    print("%-15s %-14s %14s %14s %9s  %s" % (
        "workload", "metric", "A median", "B median", "change", "verdict"))
    for workload in (w["name"] for w in catalogue["workloads"]):
        a = set_a["workloads"][workload]
        b = set_b["workloads"][workload]
        for metric in catalogue["end_to_end"]:
            name = metric["name"]
            worse_by, word = verdict(
                metric, a["end_to_end"][name], b["end_to_end"][name])
            outside += word == "outside"
            print("%-15s %-14s %14.4f %14.4f %+8.1f%%  %s" % (
                workload, name, a["end_to_end"][name]["median"],
                b["end_to_end"][name]["median"], 100 * worse_by, word))
        share_a = a["failed"] / a["attempted"]
        share_b = b["failed"] / b["attempted"]
        word = "outside" if share_b > share_a else "within"
        outside += word == "outside"
        print("%-15s %-14s %14.4f %14.4f %9s  %s" % (
            workload, "failed_share", share_a, share_b, "", word))
        moved = sorted(
            name for name in set(a["exact"]) | set(b["exact"])
            if a["exact"].get(name) != b["exact"].get(name))
        moved += sorted(
            "digest " + key for key in set(a["digests"]) | set(b["digests"])
            if a["digests"].get(key) != b["digests"].get(key))
        outside += bool(moved)
        print("%-15s %-14s %39s  %s" % (
            workload, "exact counts", "",
            "outside: " + ", ".join(moved) if moved else "identical"))
    print("%d outside" % outside)
    return 1 if outside else 0
