"""Benchmark: regenerate Figure 5 — single-thread execution time breakdown.

Paper shape: GN-2 carries the largest STM overhead (it is almost all
transactional reads/writes); LB has the largest native share (BFS
planning); LB and KM pay visible buffering costs (large read-/write-sets);
KM loses a visible share to aborted transactions.
"""

from repro.gpu.events import Phase
from repro.harness.experiments import run_figure
from benchmarks.conftest import save_artifact


def test_fig5_breakdown(benchmark, results_dir):
    result = benchmark.pedantic(run_figure, args=("fig5",), rounds=1,
                                iterations=1)
    rendered = result.render()
    save_artifact(results_dir, "fig5", rendered, data=dict(rows=result.rows))
    print("\n" + rendered)

    rows = dict(result.rows)
    for label, fractions in rows.items():
        benchmark.extra_info[label] = {
            phase: round(value, 3) for phase, value in fractions.items()
        }

    # LB has the largest native (non-transactional) share: BFS planning
    native = {label: fr.get(Phase.NATIVE, 0.0) for label, fr in rows.items()}
    assert native["LB"] == max(native.values())

    # GN-2 is dominated by STM work, not native execution
    gn2 = rows["GN-2"]
    stm_share = 1.0 - gn2.get(Phase.NATIVE, 0.0)
    assert stm_share > 0.5

    # KM burns a visible share in aborted transactions (high conflicts)
    assert rows["KM"].get(Phase.ABORTED, 0.0) > 0.1

    # every breakdown is a proper distribution
    for label, fractions in rows.items():
        assert abs(sum(fractions.values()) - 1.0) < 1e-9, label
