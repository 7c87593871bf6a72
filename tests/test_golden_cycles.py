"""Golden-determinism test: the cost model must never drift.

``tests/fixtures/golden_cycles.json`` holds the simulated cycle counts,
warp-step counts, memory-transaction counts and commit counts of one small
RA run under every STM variant (plus the CGL baseline), captured from the
*unoptimized seed simulator* before the warp-step fast path landed.

Determinism — same seeds and geometry, bit-identical simulated time — is
the repo's core promise, and every hot-path optimization must be
cost-equivalent, not just "close".  If an intentional cost-model change
ever invalidates the fixture, recapture it with the loop below and call
the change out loudly in the PR.
"""

import json
import os

import pytest

from repro.harness import configs, experiments
from repro.harness.runner import run_workload
from repro.workloads import make_workload

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "golden_cycles.json")


def _measure(workload_name, params, variant):
    run = run_workload(
        make_workload(workload_name, **params),
        variant,
        configs.bench_gpu(),
        num_locks=configs.DEFAULT_NUM_LOCKS,
        stm_overrides=configs.egpgv_capacity(),
    )
    return {
        "cycles": run.cycles,
        "commits": run.commits,
        "kernels": [
            {
                "cycles": k.cycles,
                "steps": k.steps,
                "mem_txns": k.mem_txns,
                "thread_cycles_total": k.thread_cycles_total,
            }
            for k in run.kernel_results
        ],
    }


class TestGoldenCycles:
    def test_fixture_geometry_matches_quick_ra(self):
        """The fixture must describe the geometry this test reruns."""
        with open(FIXTURE) as handle:
            golden = json.load(handle)
        assert golden["workload"] == "ra"
        assert golden["params"] == experiments._params("ra", quick=True)

    def test_every_variant_reproduces_seed_counts_exactly(self):
        with open(FIXTURE) as handle:
            golden = json.load(handle)
        params = golden["params"]
        expected_variants = ("cgl",) + experiments.FIG2_VARIANTS
        assert set(golden["variants"]) == set(expected_variants)
        for variant in expected_variants:
            measured = _measure(golden["workload"], params, variant)
            assert measured == golden["variants"][variant], (
                "simulated counts for variant %r drifted from the seed "
                "simulator (determinism violation, or an intentional "
                "cost-model change that must recapture the fixture)" % variant
            )


# Exact warp-step counts of five capture-mode runs at the exploration
# geometry, including the only 2-device pin in tier-1.  Steps are
# simulated, so they must match on every machine and every Python.
EXPLORE_STEPS = [
    ("ra", "hv-sorting", None, 4119),
    ("ra", "vbv", None, 5437),
    ("ra", "cgl", None, 4228),
    ("ht", "optimized", None, 6725),
    ("mg", "optimized", {"devices": 2, "link_model": "uniform:60"}, 5566),
]


@pytest.mark.parametrize(
    "workload_name,variant,gpu_overrides,steps", EXPLORE_STEPS,
    ids=["%s%s/%s" % (w, "-2dev" if o else "", v)
         for w, v, o, _ in EXPLORE_STEPS],
)
def test_explore_geometry_step_counts(workload_name, variant, gpu_overrides,
                                      steps):
    outcome = run_workload(
        make_workload(workload_name, **configs.test_workload_params(workload_name)),
        variant,
        configs.override_gpu(configs.explore_gpu(), gpu_overrides),
        "rr", num_locks=16, capture=True,
    )
    assert outcome.failure is None
    assert outcome.steps == steps
