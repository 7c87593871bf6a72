"""Benchmark: ablations of the paper's design decisions.

1. Encounter-time lock-sorting — removing it livelocks the section 2.2
   crossed-order workload; with it the same workload commits.
2. Order-preserving hashed lock-log — cuts sorted-insertion comparisons vs
   one flat sorted list (the O(n^2) concern of section 3.1).
3. Coalesced read-/write-set organization — cheaper than scattered logs.
4. The lock-acquisition abort threshold (section 4.3's practical note).
"""

from repro.harness.experiments import run_figure
from benchmarks.conftest import save_artifact


def test_ablations(benchmark, results_dir):
    result = benchmark.pedantic(run_figure, args=("ablations",), rounds=1,
                                iterations=1)
    rendered = result.render()
    save_artifact(results_dir, "ablations", rendered,
                  data=dict(sorting=result.sorting, locklog=result.locklog,
                            coalescing=result.coalescing,
                            lock_attempts=result.lock_attempts,
                            scheduler=result.scheduler))
    print("\n" + rendered)

    benchmark.extra_info["locklog_ratio"] = round(result.locklog["ratio"], 2)
    benchmark.extra_info["coalescing_ratio"] = round(result.coalescing["ratio"], 2)

    # sorting is load-bearing: without it the adversarial warp livelocks
    assert result.sorting["unsorted_livelocks"]
    assert result.sorting["sorted_commits"] == 2

    # hashed lock-log needs fewer comparisons than the flat sorted list
    assert result.locklog["hashed_comparisons"] < result.locklog["flat_comparisons"]

    # coalesced logs are faster than scattered ones
    assert result.coalescing["ratio"] > 1.0

    # a tiny abort threshold inflates the abort rate vs a larger one
    aborts_1 = result.lock_attempts[1][1]
    aborts_16 = result.lock_attempts[16][1]
    assert aborts_1 >= aborts_16

    # scheduling granularity measurably shifts the conflict profile
    assert set(result.scheduler) == {1, 8}
    for cycles, abort_rate in result.scheduler.values():
        assert cycles > 0
        assert 0.0 <= abort_rate < 1.0
