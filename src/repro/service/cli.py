"""``python -m repro service`` — the ledger-service benchmark CLI.

Sweeps offered load × STM variant × contention skew through
:func:`repro.service.sweep.run_service_sweep` and writes the artifacts
(deterministic ``service_summary.json``, wall-clock ``run_info.json``,
optional merged metrics and per-cell Chrome-trace timelines) under
``--out``.  The execution and artifact flags are the shared sweep
front-end of :mod:`repro.harness.sweep`.
"""

import argparse
import os

from repro.common.cli import run_main
from repro.harness.sweep import (
    SweepCommand,
    add_sweep_flags,
    csv_or_all,
    number_list,
    sweep_main,
)
from repro.service.arrivals import ARRIVAL_KINDS
from repro.service.sweep import DEFAULT_OUT_DIR, run_service_sweep
from repro.stm import EXTENSION_VARIANTS, STM_VARIANTS

#: arrival modes the CLI accepts: the open-loop processes + closed-loop
MODES = ARRIVAL_KINDS + ("closed",)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="python -m repro service",
        description="Run the transactional ledger server under open- or "
        "closed-loop load and report throughput, goodput, abort rate and "
        "latency percentiles per STM variant.",
    )
    parser.add_argument(
        "--variants", default="cgl,vbv,optimized", metavar="NAMES",
        help="comma-separated STM variants to serve with, or 'all' "
        "(default: cgl,vbv,optimized)",
    )
    parser.add_argument(
        "--load", action="append", default=None, metavar="RATES",
        help="offered load in tx per 1000 simulated cycles; comma-separated "
        "and/or repeatable (default: 2)",
    )
    parser.add_argument(
        "--skew", action="append", default=None, metavar="SKEWS",
        help="Zipfian contention skew(s); 0 = uniform (default: 0.8)",
    )
    parser.add_argument(
        "--arrival", default="poisson", choices=MODES,
        help="arrival process: open-loop poisson/bursty, or the closed-loop "
        "comparison mode (default: poisson)",
    )
    parser.add_argument(
        "--duration-cycles", type=int, default=50_000, metavar="N",
        help="arrival horizon in simulated cycles (default: 50000); the "
        "server then drains its queue to empty",
    )
    parser.add_argument(
        "--seed", type=int, default=7, help="base RNG seed (default: 7)"
    )
    parser.add_argument(
        "--accounts", type=int, default=4096, metavar="N",
        help="ledger accounts (default: 4096)",
    )
    parser.add_argument(
        "--devices", type=int, default=1, metavar="N",
        help="serve from an N-device topology: accounts shard across "
        "devices by the home-device function and cross-device transfers "
        "pay link costs (default: 1)",
    )
    parser.add_argument(
        "--link", default=None, metavar="SPEC",
        help="inter-device link model with --devices > 1: a preset "
        "(nvlink, pcie), 'uniform:LAT' or 'switched:SAME,CROSS' "
        "(default: nvlink-shaped)",
    )
    service_group = parser.add_argument_group("batching and backpressure")
    service_group.add_argument(
        "--batch-size", type=int, default=None, metavar="N",
        help="launch a batch at N queued transactions (default: 64)",
    )
    service_group.add_argument(
        "--batch-deadline", type=int, default=None, metavar="CYCLES",
        help="launch a partial batch once its head has waited CYCLES "
        "(default: 1000)",
    )
    service_group.add_argument(
        "--queue-capacity", type=int, default=None, metavar="N",
        help="ingress queue bound; arrivals beyond it are shed and counted "
        "(default: 512)",
    )
    service_group.add_argument(
        "--admission-rate", type=float, default=None, metavar="RATE",
        help="token-bucket admission rate in tx/kcycle (default: off)",
    )
    service_group.add_argument(
        "--admission-burst", type=int, default=None, metavar="N",
        help="token-bucket burst capacity (default: 32)",
    )
    closed_group = parser.add_argument_group("closed-loop mode")
    closed_group.add_argument(
        "--clients", type=int, default=64, metavar="N",
        help="concurrent closed-loop clients (default: 64)",
    )
    closed_group.add_argument(
        "--think-cycles", type=int, default=2000, metavar="CYCLES",
        help="mean client think time between requests (default: 2000)",
    )
    add_sweep_flags(parser, DEFAULT_OUT_DIR, timeline=True)
    return parser


@sweep_main
def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    variants = csv_or_all(args.variants, STM_VARIANTS + EXTENSION_VARIANTS,
                          "--variants", parser)
    loads = number_list(args.load or ["2"], "--load", parser)
    skews = number_list(args.skew or ["0.8"], "--skew", parser)
    if any(load <= 0 for load in loads):
        parser.error("--load rates must be positive")
    if any(skew < 0 for skew in skews):
        parser.error("--skew must be >= 0")
    if args.duration_cycles < 1:
        parser.error("--duration-cycles must be >= 1")
    if args.devices < 1:
        parser.error("--devices must be >= 1")

    gpu_overrides = None
    if args.devices > 1 or args.link is not None:
        gpu_overrides = {"devices": args.devices}
        if args.link is not None:
            gpu_overrides["link_model"] = args.link
    service_overrides = {
        field: getattr(args, field)
        for field in ("batch_size", "batch_deadline", "queue_capacity",
                      "admission_rate", "admission_burst")
        if getattr(args, field) is not None
    }

    command = SweepCommand(args, parser, "ledger-service", seed=args.seed,
                           summary={"arrival": args.arrival})
    report = run_service_sweep(
        variants, loads, skews=skews, arrival=args.arrival, seed=args.seed,
        duration_cycles=args.duration_cycles, num_accounts=args.accounts,
        clients=args.clients, think_mean=args.think_cycles,
        service_overrides=service_overrides or None,
        gpu_overrides=gpu_overrides,
        timeline_dir=(os.path.join(args.out, "timelines")
                      if args.timeline else None),
        **command.run_kwargs
    )
    return command.finish(report, "service sweep")


if __name__ == "__main__":
    run_main(main)
