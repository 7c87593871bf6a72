"""Scaled geometries with the paper's ratios (DESIGN.md section 6).

The paper ran a C2070 (14 SMs, 32-lane warps), 1M version locks, workloads
with 1M-64M words of shared data and up to 65,536 threads.  We keep every
*ratio* — locks : shared data, threads : SMs — and scale absolute sizes by
~1/1024 so a pure-Python simulation finishes in seconds: Ki where the paper
has Mi.
"""

import dataclasses

from repro.gpu.config import GpuConfig, small_config

#: default version-lock table (paper: 1 Mi; here 8 Ki — scaled so that a
#: warp's commit-time lock footprint relative to the table, which is what
#: sets the intra-warp collision rate, stays in the paper's "modest
#: conflicts" regime)
DEFAULT_NUM_LOCKS = 8192


def paper_gpu(max_steps=60_000_000, warp_size=32):
    """A Fermi-C2070-shaped device."""
    return GpuConfig(warp_size=warp_size, num_sms=14, max_steps=max_steps)


def bench_gpu():
    """Device geometry used by the benchmark harness."""
    return paper_gpu()


def explore_gpu(max_steps=2_000_000, **overrides):
    """Small, strict geometry used for schedule exploration.

    Few warps per SM keeps every interleaving decision consequential (a
    14-SM, 48-warp device dilutes any single decision's effect), and the
    tight watchdog turns schedule-induced livelock into a fast, structured
    failure instead of a long spin.
    """
    return dataclasses.replace(small_config(max_steps=max_steps), **overrides)


def override_gpu(gpu, overrides):
    """Apply a cell's plain-data ``GpuConfig`` attribute ``overrides``
    (e.g. ``{"warp_steps_per_turn": 8}``) to ``gpu`` in place; returns
    ``gpu``."""
    for attr, value in (overrides or {}).items():
        if not hasattr(gpu, attr):
            raise ValueError("unknown GpuConfig attribute %r" % attr)
        setattr(gpu, attr, value)
    return gpu


def unit_gpu(max_steps=8_000_000):
    """Small device for workload unit tests."""
    return small_config(warp_size=8, num_sms=4, max_steps=max_steps)


# ----------------------------------------------------------------------
# Workload parameter sets
# ----------------------------------------------------------------------

def bench_workload_params(name):
    """Benchmark-scale parameters (paper geometry / ~1024).

    Shared-data sizes keep the paper's Table 1 ratios against the 8 Ki
    lock table (:data:`DEFAULT_NUM_LOCKS`): RA's 64 Ki-word array (8 words
    per lock) and LB's 120 x 120 grid (~1.75 cells per lock) exceed it
    (HV pays off); HT's 8 Ki buckets and GN's 4 Ki table stay at or below
    it (TBV suffices); KM's shared data is tiny and hot.
    """
    if name == "ra":
        # shared / locks = 8, as in the paper (8M / 1M)
        return dict(array_size=65536, grid=16, block=32, txs_per_thread=2,
                    actions_per_tx=2)
    if name == "ht":
        return dict(num_buckets=8192, grid=16, block=32, txs_per_thread=2,
                    inserts_per_tx=2)
    if name == "eb":
        return dict(hot_size=16384, grid=16, block=32, txs_per_thread=2,
                    reads_per_tx=4, writes_per_tx=2)
    if name == "lb":
        # cells / locks = 1.75, as in the paper (1.75M / 1M)
        return dict(width=120, height=120, grid_blocks=28, block_threads=32,
                    paths_per_router=4, bfs_cost_factor=8,
                    max_route_distance=12)
    if name == "gn":
        return dict(table_size=4096, grid=16, block=32, segments_per_thread=2,
                    segment_space=1024, match_grid=4, match_block=32)
    if name == "km":
        return dict(num_points=512, dims=4, k=8, grid=8, block=32,
                    compute_factor=40)
    if name == "lg":
        # accounts / locks = 2: moderately hot ledger; skew 0.8 puts ~40%
        # of traffic on the hottest 1% of accounts
        return dict(num_accounts=16384, grid=16, block=32, txs_per_thread=2,
                    skew=0.8)
    if name == "mg":
        # the sharded ledger: milder account skew than lg (contention
        # comes from the remote fraction, not one hot account) and 30%
        # cross-device destinations by default
        return dict(num_accounts=16384, grid=16, block=32, txs_per_thread=2,
                    skew=0.6, remote_frac=0.3)
    if name == "cns":
        # few hot decision words under many proposers: the byzantine
        # containment workload (arXiv 2503.12788 geometry, scaled)
        return dict(objects=16, grid=16, block=32)
    raise ValueError("no benchmark parameters for workload %r" % name)


def test_workload_params(name):
    """Tiny parameters for the unit-test suite."""
    if name == "ra":
        return dict(array_size=256, grid=2, block=16, txs_per_thread=2, actions_per_tx=2)
    if name == "ht":
        return dict(num_buckets=32, grid=2, block=16, txs_per_thread=2, inserts_per_tx=2)
    if name == "eb":
        return dict(hot_size=128, grid=2, block=16, txs_per_thread=2,
                    reads_per_tx=2, writes_per_tx=1)
    if name == "lb":
        return dict(width=16, height=16, grid_blocks=4, block_threads=8,
                    paths_per_router=1)
    if name == "gn":
        return dict(table_size=128, grid=2, block=16, segments_per_thread=2,
                    match_grid=2, match_block=8)
    if name == "km":
        return dict(num_points=64, dims=2, k=4, grid=2, block=8)
    if name == "lg":
        return dict(num_accounts=128, grid=2, block=16, txs_per_thread=2,
                    skew=0.8)
    if name == "mg":
        # grid=4: covers every SM of the 2-device explore geometry (2 SMs
        # per device), so both devices execute blocks
        return dict(num_accounts=256, grid=4, block=16, txs_per_thread=2,
                    skew=0.6, remote_frac=0.3)
    if name == "cns":
        return dict(objects=4, grid=2, block=16)
    raise ValueError("no test parameters for workload %r" % name)


def egpgv_capacity():
    """STM-EGPGV static capacities: metadata for 4 concurrent block
    transactions.  Figure 2 runs EGPGV at this maximum concurrency (total
    work held constant — see :func:`egpgv_workload_params`); the Figure 3
    thread sweep crashes past 128 threads, reproducing the paper's
    "crashes at relatively small numbers of threads"."""
    return dict(egpgv_max_blocks=4, egpgv_max_threads_per_block=64)


def egpgv_workload_params(name):
    """Bench parameters folded into EGPGV's 4-block concurrency limit.

    The total transactional work of :func:`bench_workload_params` is
    preserved; only the launch geometry shrinks to what EGPGV's static
    metadata supports (the paper likewise ran each system at a
    configuration it could execute).
    """
    params = bench_workload_params(name)
    if name == "lb":
        total_paths = params["grid_blocks"] * params["paths_per_router"]
        params["grid_blocks"] = 4
        params["paths_per_router"] = total_paths // 4
        return params
    if name == "gn":
        total_segments = params["grid"] * params["block"] * params["segments_per_thread"]
        params["grid"] = 4
        params["segments_per_thread"] = total_segments // (4 * params["block"])
        params["match_grid"] = 4
        return params
    if name == "km":
        params["grid"] = 4  # point loop strides over the grid, work unchanged
        return params
    factor = max(1, params["grid"] // 4)
    params["grid"] = min(params["grid"], 4)
    params["txs_per_thread"] *= factor
    return params
