"""The ``layers`` probe: unit costs of one warp step by differential
kernels.

Each figure is a difference of two launch times of kernels that differ in
exactly one thing (see ``perfbench/kernels.py``), divided by a count the
simulator reports exactly.  Cheap and repeatable where a sampling profiler
is neither; every launch is repeated and the median taken, because a
difference of two noisy times is noisier than either.
"""

import os
import statistics
import time

from repro.expdb.provenance import provenance_snapshot
from repro.gpu import GpuConfig, make_device
from repro.harness import configs
from repro.stm import StmConfig, make_runtime

from perfbench import kernels
from perfbench.passes import host_calib_ns, warm_up

REPEATS = 3
EMPTY_TX_VARIANTS = ("optimized", "hv-sorting", "vbv", "cgl")


def _timed_launch(kernel, grid, block, args=(), setup=None, variant=None):
    """Median launch seconds over ``REPEATS`` fresh devices, and the last
    ``KernelResult``.  ``setup(device)`` returns extra leading args."""
    times = []
    result = None
    for _ in range(REPEATS):
        device = make_device(GpuConfig(num_sms=14))
        extra = setup(device) if setup is not None else ()
        attach = None
        if variant is not None:
            runtime = make_runtime(variant, device, StmConfig(
                num_locks=configs.DEFAULT_NUM_LOCKS, shared_data_size=1 << 16))
            attach = runtime.attach
        started = time.perf_counter()
        result = device.launch(kernel, grid, block, args=tuple(extra) + tuple(args),
                               attach=attach)
        times.append(time.perf_counter() - started)
    return statistics.median(times), result


def run_probe(spawn_ts, smoke):
    """All differential-kernel metrics, as ``{name: value}``."""
    warm_up()
    calib = [host_calib_ns()]
    grid, block = (4, 64) if smoke else (14, 128)
    threads = grid * block
    iters = 20 if smoke else 80
    words = 1 << 16

    def data(device):
        return (device.mem.alloc(words, "data"),)

    out = {}
    zero_s, _ = _timed_launch(kernels.zero_iter_kernel, grid, block)
    out["gpu.launch_fixed_us_per_thread"] = zero_s / threads * 1e6

    def ns_per_step(kernel, args=(), setup=None):
        seconds, result = _timed_launch(kernel, grid, block, args, setup)
        return (seconds - zero_s) / result.steps * 1e9, result

    # one lane per warp runs 8x the iterations so both spins take alike
    spin1, _ = ns_per_step(kernels.spin_kernel, (iters * 8, 1))
    spin32, _ = ns_per_step(kernels.spin_kernel, (iters, 32))
    out["gpu.issue_ns_per_step"] = spin1
    out["gpu.resume_ns_per_lane_step"] = (spin32 - spin1) / 31
    work, _ = ns_per_step(kernels.work_kernel, (iters,))
    out["gpu.account_ns_per_op"] = (work - spin32) / 32
    folds = (
        ("gpu.fold_coalesced_ns_per_step", kernels.coalesced_read_kernel,
         (words, iters)),
        ("gpu.fold_scattered_ns_per_step", kernels.scattered_read_kernel,
         (words, iters, 37)),
        ("gpu.fold_same_addr_read_ns_per_step", kernels.same_addr_read_kernel,
         (iters,)),
        ("gpu.fold_atomic_ns_per_step", kernels.atomic_kernel, (4, iters)),
    )
    for name, kernel, args in folds:
        cost, _ = ns_per_step(kernel, args, setup=data)
        out[name] = cost - spin32

    started = time.perf_counter()
    device = make_device(GpuConfig(num_sms=14))
    make_runtime("optimized", device, StmConfig(
        num_locks=configs.DEFAULT_NUM_LOCKS, shared_data_size=1 << 16))
    out["stm.make_runtime_s"] = time.perf_counter() - started

    def tx_seconds(variant, tx_grid, tx_block, txs, reads, writes):
        seconds, result = _timed_launch(
            kernels.tx_kernel, tx_grid, tx_block, (words, txs, reads, writes, 64),
            setup=data, variant=variant)
        fixed_s = zero_s * (tx_grid * tx_block) / threads
        return seconds - fixed_s, result, tx_grid * tx_block * txs

    for variant in EMPTY_TX_VARIANTS:
        # cgl serialises every thread on one lock, so its launch time grows
        # with the square of the thread count: it gets one small block
        shape = (1, 64, 4) if variant == "cgl" else (4, block, 4 if smoke else 12)
        seconds, result, tx_count = tx_seconds(variant, *shape, 0, 0)
        # what the steps of the launch would cost as plain 32-lane spins
        spin_s = result.steps * spin32 * 1e-9
        out["stm.empty_tx_ns.%s" % variant] = (seconds - spin_s) / tx_count * 1e9
    shape = (4, block, 2)
    for op, metric in (((1, 0), "stm.read_ns_per_op.optimized"),
                       ((0, 1), "stm.write_ns_per_op.optimized")):
        four, _, tx_count = tx_seconds("optimized", *shape, 4 * op[0], 4 * op[1])
        eight, _, _ = tx_seconds("optimized", *shape, 8 * op[0], 8 * op[1])
        out[metric] = (eight - four) / (4 * tx_count) * 1e9

    calib.append(host_calib_ns())
    return {"metrics": out, "host_calib_ns": calib,
            "provenance": machine_fingerprint(),
            "wall_s": time.perf_counter() - spawn_ts}


def machine_fingerprint():
    """``repro.expdb.provenance`` (git SHA, interpreter, platform; no
    hostname) plus what decides host speed here: the CPU and its count."""
    snapshot = provenance_snapshot(cwd=os.path.dirname(os.path.abspath(__file__)))
    model = None
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    snapshot["cpu"] = {"model": model, "count": os.cpu_count()}
    return snapshot
