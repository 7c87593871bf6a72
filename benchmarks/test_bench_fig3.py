"""Benchmark: regenerate Figure 3 — scalability with thread count.

Paper shape: STM-EGPGV crashes at relatively small thread counts (static
per-block metadata); STM-VBV does not scale (single global sequence lock);
the lock-table variants scale well.
"""

from repro.harness.experiments import FIG3_VARIANTS, run_figure
from benchmarks.conftest import save_artifact


def test_fig3_thread_scaling(benchmark, results_dir):
    result = benchmark.pedantic(run_figure, args=("fig3",), rounds=1,
                                iterations=1)
    rendered = result.render()
    save_artifact(results_dir, "fig3", rendered,
                  data=dict(workload=result.workload,
                            thread_counts=result.thread_counts,
                            cycles=result.cycles))
    print("\n" + rendered)

    for variant in FIG3_VARIANTS:
        benchmark.extra_info[variant] = [
            None if value is None else round(value, 2)
            for value in result.normalized(variant)
        ]

    # EGPGV crashes once the launch exceeds its static block capacity
    egpgv = result.cycles["egpgv"]
    assert egpgv[0] is not None
    assert egpgv[-1] is None, "EGPGV should crash at the largest thread count"
    # the sorted lock-table variants scale well (paper: they flatten only
    # once hardware limits and conflict rates bite — "the performance does
    # not improve consistently with the increasing number of threads")
    hv = result.normalized("hv-sorting")
    assert max(hv) > 2.0
    assert hv[-1] >= hv[0]
    # VBV does not scale (single global sequence lock): by the largest
    # thread count it has fallen far behind its own peak and behind HV
    vbv = result.normalized("vbv")
    assert vbv[-1] < 0.5 * max(vbv)
    assert vbv[-1] < hv[-1]
