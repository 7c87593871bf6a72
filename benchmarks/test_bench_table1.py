"""Benchmark: regenerate Table 1 — transactional characteristics.

Paper shape: KM has the smallest shared data and the highest conflict
probability; LB has the lowest proportion of time inside transactions
(planning is native); the micro-benchmarks are almost entirely
transactional; RA and LB are the workloads whose shared data exceeds the
version-lock table.
"""

from repro.harness import configs
from repro.harness.experiments import run_figure
from benchmarks.conftest import save_artifact


def test_table1_characteristics(benchmark, results_dir):
    result = benchmark.pedantic(run_figure, args=("table1",), rounds=1,
                                iterations=1)
    rendered = result.render()
    save_artifact(results_dir, "table1", rendered, data=dict(rows=result.rows))
    print("\n" + rendered)

    rows = {row["kernel"]: row for row in result.rows}
    benchmark.extra_info["rows"] = {
        name: {k: (round(v, 3) if isinstance(v, float) else v) for k, v in row.items()}
        for name, row in rows.items()
    }

    # KM: smallest shared data, highest conflict probability
    shared = {name: row["shared"] for name, row in rows.items()}
    conflicts = {name: row["conflicts"] for name, row in rows.items()}
    assert shared["km"] == min(shared.values())
    assert conflicts["km"] == max(conflicts.values())

    # LB: the lowest TX-time proportion (BFS planning is native)
    tx_time = {name: row["tx_time"] for name, row in rows.items()}
    assert tx_time["lb"] == min(tx_time.values())

    # micro-benchmarks spend nearly all their time in transactions
    for name in ("ra", "ht", "eb"):
        assert tx_time[name] > 0.9

    # RA and LB exceed the version-lock table; the others do not
    locks = configs.DEFAULT_NUM_LOCKS
    assert shared["ra"] > locks
    assert shared["lb"] > locks
    assert shared["ht"] <= locks
    assert shared["km"] <= locks
