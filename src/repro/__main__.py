"""``python -m repro`` — the top-level CLI dispatcher.

The first argument picks a subcommand; everything after it is forwarded
to that subcommand's own argument parser.  ``python -m repro --help``
prints the full roster; an unknown subcommand is an error (exit 2), not
a silent forward.
"""

import sys

from repro.common.cli import run_main

#: subcommands with their own CLI module, in help order
_SUBCOMMANDS = (
    ("service", "repro.service.cli",
     "ledger service under open/closed-loop load: throughput, latency "
     "percentiles, collapse knees"),
    ("multigpu", "repro.multigpu.cli",
     "multi-device survival sweep: variant x remote-fraction x "
     "link-latency outcome maps"),
    ("byz", "repro.faults.byzcampaign",
     "byzantine-lane resilience campaign: adversarial behaviors x STM "
     "variants, containment and detection-latency matrix"),
    ("db", "repro.expdb.cli",
     "query the experiment database: runs, reports, artifact "
     "re-hashing"),
    ("reproduce", "repro.expdb.reproduce",
     "regenerate the full artifact bundle and record it in the "
     "experiment database"),
)

#: targets forwarded to ``python -m repro.harness`` (its parser owns the
#: per-target flags; descriptions here are for the roster only)
_HARNESS_TARGETS = (
    ("table1", "reproduce Table 1 (per-workload characterization under "
               "hv-sorting)"),
    ("table2", "reproduce Table 2 (launch-geometry sweep per workload)"),
    ("fig2", "reproduce Figure 2 (speedup of every variant over CGL)"),
    ("fig3", "reproduce Figure 3 (thread-count sweep; EGPGV crash point)"),
    ("fig4", "reproduce Figure 4 (shared-data x lock-table size sweep)"),
    ("fig5", "reproduce Figure 5 (phase breakdown under STM-Optimized)"),
    ("all", "run every table and figure target in sequence"),
    ("trace", "record a Chrome-trace timeline + metrics for one run"),
    ("fuzz", "fuzz schedule interleavings against the serializability "
             "oracle"),
    ("inject", "mutant-efficacy campaign: seeded protocol bugs x "
               "checkers"),
    ("sanitize", "run workloads with the online STM sanitizer armed"),
)


def _usage():
    lines = [
        "usage: python -m repro <subcommand> [options]",
        "",
        "subcommands:",
    ]
    for name, _module, description in _SUBCOMMANDS:
        lines.append("  %-10s %s" % (name, description))
    lines.append("")
    lines.append("harness targets (forwarded to python -m repro.harness):")
    for name, description in _HARNESS_TARGETS:
        lines.append("  %-10s %s" % (name, description))
    lines.append("")
    lines.append("run 'python -m repro <subcommand> --help' for "
                 "per-subcommand options.")
    return "\n".join(lines)


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help", "help"):
        print(_usage())
        return 0
    target, rest = argv[0], argv[1:]
    for name, module, _description in _SUBCOMMANDS:
        if target == name:
            import importlib

            return importlib.import_module(module).main(rest)
    if target in {name for name, _description in _HARNESS_TARGETS}:
        from repro.harness.__main__ import main as harness_main

        return harness_main(argv)
    print("python -m repro: unknown subcommand %r\n" % target,
          file=sys.stderr)
    print(_usage(), file=sys.stderr)
    return 2


if __name__ == "__main__":
    run_main(main)
