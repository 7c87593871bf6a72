"""``python -m repro multigpu`` — the multi-device survival-sweep CLI.

Maps which STM variants survive cross-shard commits as the remote-access
fraction and the inter-device link latency grow
(:mod:`repro.multigpu.sweep`), writing the survival-map artifacts under
``--out``.  The execution and artifact flags are the shared sweep
front-end of :mod:`repro.harness.sweep`.
"""

import argparse

from repro.common.cli import run_main
from repro.harness.sweep import (
    SweepCommand,
    add_sweep_flags,
    csv_or_all,
    number_list,
    sweep_main,
)
from repro.multigpu.sweep import DEFAULT_OUT_DIR, run_multigpu_sweep
from repro.stm import EXTENSION_VARIANTS, STM_VARIANTS


def build_parser():
    parser = argparse.ArgumentParser(
        prog="python -m repro multigpu",
        description="Run the sharded ledger workload over a multi-device "
        "topology and map per-variant commit/abort/livelock outcomes "
        "against the remote-access fraction and link latency (the "
        "survival map; see docs/multigpu.md).",
    )
    parser.add_argument(
        "--variants", default="all", metavar="NAMES",
        help="comma-separated STM variants, or 'all' (default: all)",
    )
    parser.add_argument(
        "--remote-frac", action="append", default=None, metavar="FRACS",
        help="fraction of transfers with a cross-device destination; "
        "comma-separated and/or repeatable (default: 0,0.3,0.6)",
    )
    parser.add_argument(
        "--link-latency", action="append", default=None, metavar="CYCLES",
        help="inter-device link latency in cycles; comma-separated and/or "
        "repeatable (default: 40,160)",
    )
    parser.add_argument(
        "--devices", type=int, default=2, metavar="N",
        help="devices in the topology (default: 2)",
    )
    parser.add_argument(
        "--skew", type=float, default=0.6, metavar="S",
        help="Zipfian account skew inside each shard (default: 0.6)",
    )
    parser.add_argument(
        "--shard-skew", type=float, default=0.0, metavar="S",
        help="Zipfian skew over which remote device is targeted; 0 = "
        "uniform (default: 0)",
    )
    parser.add_argument(
        "--seed", type=int, default=2026, help="workload seed (default: 2026)"
    )
    parser.add_argument(
        "--accounts", type=int, default=256, metavar="N",
        help="sharded ledger accounts (default: 256)",
    )
    parser.add_argument(
        "--grid", type=int, default=4, metavar="N",
        help="blocks per launch (default: 4 — one per SM of the 2-device "
        "explore geometry)",
    )
    parser.add_argument(
        "--block", type=int, default=16, metavar="N",
        help="threads per block (default: 16)",
    )
    parser.add_argument(
        "--txs", type=int, default=2, metavar="N",
        help="transfers per thread (default: 2)",
    )
    parser.add_argument(
        "--max-steps", type=int, default=400_000, metavar="N",
        help="watchdog budget per cell in warp steps (default: 400000); "
        "cells that trip it become livelock/deadlock map entries",
    )
    add_sweep_flags(parser, DEFAULT_OUT_DIR)
    return parser


@sweep_main
def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    variants = csv_or_all(args.variants, STM_VARIANTS + EXTENSION_VARIANTS,
                          "--variants", parser)
    remote_fracs = number_list(
        args.remote_frac or ["0,0.3,0.6"], "--remote-frac", parser
    )
    latencies = number_list(
        args.link_latency or ["40,160"], "--link-latency", parser, cast=int
    )
    if any(not 0.0 <= frac <= 1.0 for frac in remote_fracs):
        parser.error("--remote-frac values must be in [0, 1]")
    if any(latency < 0 for latency in latencies):
        parser.error("--link-latency must be >= 0")
    if args.devices < 2:
        parser.error("--devices must be >= 2 (the single-device story is "
                     "the rest of the harness)")

    command = SweepCommand(args, parser, "multigpu-survival", seed=args.seed,
                           summary={"devices": args.devices})
    report = run_multigpu_sweep(
        variants, remote_fracs, latencies, devices=args.devices,
        skew=args.skew, shard_skew=args.shard_skew, seed=args.seed,
        num_accounts=args.accounts, grid=args.grid, block=args.block,
        txs_per_thread=args.txs, max_steps=args.max_steps,
        **command.run_kwargs
    )
    return command.finish(report, "multigpu sweep")


if __name__ == "__main__":
    run_main(main)
