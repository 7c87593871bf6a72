"""Benchmark: regenerate Figure 2 — STM speedup over CGL on five workloads.

Paper shape being reproduced: STM-Optimized fastest or tied among STM
variants; STM-VBV collapses on transaction-heavy workloads; STM-EGPGV
constrained by block-granularity concurrency; KM gains nothing from STM;
GN is the biggest winner.
"""

from repro.harness.experiments import FIG2_WORKLOADS, run_figure
from benchmarks.conftest import save_artifact


def test_fig2_overall_speedup(benchmark, results_dir):
    result = benchmark.pedantic(run_figure, args=("fig2",), rounds=1,
                                iterations=1)
    rendered = result.render()
    save_artifact(results_dir, "fig2", rendered,
                  data=dict(speedups=result.speedups, cycles=result.cycles))
    print("\n" + rendered)

    speedups = result.speedups
    for workload in FIG2_WORKLOADS:
        benchmark.extra_info[workload] = {
            variant: (None if value is None else round(value, 2))
            for variant, value in speedups[workload].items()
        }

    # shape assertions (who wins, roughly by how much)
    for workload in ("ra", "ht", "gn"):
        assert speedups[workload]["optimized"] > 2.0, workload
        assert speedups[workload]["vbv"] < speedups[workload]["optimized"]
        # EGPGV's block-granularity concurrency trails the per-thread STMs
        assert speedups[workload]["egpgv"] < speedups[workload]["optimized"]
    # KM does not benefit from STM parallelization (high conflict rate)
    assert speedups["km"]["optimized"] < 1.5
    # LB: HV-sorting beats TBV-sorting (shared data > version locks)
    assert speedups["lb"]["hv-sorting"] > speedups["lb"]["tbv-sorting"]
    # RA: shared data (8x locks) makes HV beat TBV here too
    assert speedups["ra"]["hv-sorting"] > speedups["ra"]["tbv-sorting"]
