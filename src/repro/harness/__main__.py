"""Command-line entry point: regenerate any table or figure, trace, or fuzz.

Usage::

    python -m repro.harness table1 [--quick]
    python -m repro.harness fig2 [--quick] [--jobs N] [--metrics out.json]
    python -m repro.harness fig3 [--quick]
    python -m repro.harness fig4 [--quick]
    python -m repro.harness fig5 [--quick]
    python -m repro.harness table2 [--quick]
    python -m repro.harness all --quick --jobs 4
    python -m repro.harness trace fig5 --quick --out trace-artifacts
    python -m repro.harness trace km --variant hv-sorting --quick
    python -m repro.harness fuzz --workload ra --variant all --seeds 8 \\
        --policy random --policy adversarial --jobs 4 --out fuzz-artifacts
    python -m repro.harness inject --mutants all \\
        --checkers oracle,sanitizer,fuzzer --jobs 4 --out fault-artifacts
    python -m repro.harness sanitize --workload ra --variant all \\
        --fault "clock_skew:region=g_clock,count=2"
    python -m repro.harness fig2 --quick --jobs 4 --retries 2 \\
        --timeout 300 --resume out/fig2.journal

``--jobs N`` (else the ``REPRO_JOBS`` environment variable, else 1) fans
the independent runs of each sweep out over N worker processes; results
are identical to a serial run.  A ``REPRO_JOBS`` that is not an integer
>= 1 is a usage error (exit 2), as ``--jobs 0`` is.  To profile the
driving process, run the module under cProfile with ``--jobs 1``::

    python -m cProfile -o run.prof -m repro.harness fig2 --quick --jobs 1

``--metrics FILE`` writes the run's merged telemetry registry (counters,
gauges, histograms; see :mod:`repro.telemetry`) as JSON.  On figure/table
targets it turns on per-worker telemetry and aggregates across processes.

The ``trace`` target records simulated-time Chrome-trace timelines
(open them in ``chrome://tracing`` or https://ui.perfetto.dev).  Its
``experiment`` argument is either a figure/table name — every run of that
sweep gets its own ``<out>/<key>.trace.json`` — or a single workload name
(``ra ht eb lb gn km``), traced under one variant (``--variant``,
default ``optimized``).  A merged ``metrics.json`` lands next to the
traces; see ``docs/observability.md``.

Each target has its own subcommand parser declaring only the flags it
reads, with its own defaults; a flag the target does not read is a usage
error (exit 2) naming that flag (``python -m repro.harness <target>
--help`` lists a target's flags).

``fuzz``, ``sanitize`` and ``inject`` are grids of the one captured-run
cell (:class:`repro.harness.parallel.ExploreCell`) on the shared sweep
layer (:mod:`repro.harness.sweep`), so they run on the pool under
``--jobs``, take the sweep flags below and write a deterministic summary
JSON plus ``run_info.json`` under ``--out``.  A cell that errors is
listed in the failure roster and exits 1.  ``--variant`` is one STM
variant or ``all`` (the paper's seven); an unknown variant, workload or
mutant, or ``--seeds`` below 1, is a usage error (exit 2) before any
cell runs.

The ``fuzz`` target runs the schedule-exploration fuzzer
(:mod:`repro.sched.fuzz`): N seeded schedules per policy template per STM
variant, every commit history checked by the strict-serializability
oracle, failing schedules shrunk and written under ``--out`` (default
``fuzz-artifacts``) next to ``fuzz_summary.json``.  Exit code is 1 when
any schedule produced a violation.

The ``inject`` target runs the mutant-efficacy campaign
(:mod:`repro.faults.campaign`): each seeded protocol bug of
:data:`repro.faults.mutants.MUTANTS` under each checker, plus unmutated
baselines.  The JSON matrix lands at ``<out>/efficacy_matrix.json``; exit
code is 1 unless every mutant was caught and every baseline stayed clean.

The ``sanitize`` target runs one workload per variant with the online
:class:`~repro.faults.sanitizer.StmSanitizer` bound, optionally under
injected faults (``--fault SPEC``, repeatable): any of the crash or
byzantine kinds of :meth:`repro.faults.plan.FaultSpec.parse`, e.g.
``lock_hoard:tids=0+3``.  A malformed SPEC is a usage error (exit 2)
naming the rejected token.  The first violation is printed and the exit
code is 1 when any variant failed.

Artifact-producing targets (``trace``) validate what they wrote with
:mod:`repro.telemetry.validate` and exit non-zero on the first invalid
artifact.

``--retries N`` / ``--timeout SECONDS`` / ``--resume PATH`` set the
figure/table sweeps' (and ``fuzz``'s, ``sanitize``'s and ``inject``'s)
execution (:func:`repro.harness.parallel.run_jobs`): bounded retry with
backoff for transient failures (default: none), per-job wall-clock
timeouts (``--jobs`` > 1), and a checkpoint journal at PATH so an
interrupted sweep resumes where it stopped (``all`` suffixes the journal
per target).  Jobs that still fail render as explicit FAILED gaps, a
failure summary is printed, and the exit code is 1 — see
``docs/resilience.md``.
``trace`` takes none of these four flags; ``--timeout`` with one
worker is a usage error.
"""

import argparse
import os
import sys
import time

from repro.harness import configs
from repro.harness.experiments import TARGETS, run_figure
from repro.harness.sweep import (
    SweepCommand,
    add_sweep_flags,
    csv_or_all,
    failed_cell,
    jobs_of,
    print_failures,
    recorder_for,
    run_sweep,
    sweep_jobs,
    sweep_main,
    worker_count,
)
from repro.stm import EXTENSION_VARIANTS, STM_VARIANTS
from repro.workloads import workload_names

#: workload names ``trace`` (single-run timelines), ``fuzz``, ``sanitize``
#: and ``inject`` accept: the registry's sorted roster, so new workloads
#: are usable on arrival
WORKLOADS = workload_names()


def _variants(args):
    """The STM variants ``--variant`` names: ``all`` is the paper's
    seven."""
    return list(STM_VARIANTS) if args.variant == "all" else [args.variant]


def run_fuzz(args, parser):
    """Drive the interleaving fuzzer's grid; returns an exit code."""
    # imported here: the figure targets must not pay for the fuzz stack
    from repro.sched.fuzz import SEEDED_TEMPLATES, fuzz_schedules

    variants = _variants(args)
    command = SweepCommand(args, parser, "fuzz")
    report = fuzz_schedules(
        args.workload,
        configs.test_workload_params(args.workload),
        variants,
        seeds=args.seeds,
        policies=args.policy or SEEDED_TEMPLATES,
        artifact_dir=args.out,
        **command.run_kwargs
    )
    if command.metrics is not None:
        from repro.telemetry import metric_name

        for variant, entry in report.summary["variants"].items():
            prefix = metric_name("fuzz", args.workload, variant)
            command.metrics.add(metric_name(prefix, "schedules"),
                                entry["schedules"])
            command.metrics.add(metric_name(prefix, "failures"),
                                len(entry["failures"]))
            command.metrics.add(metric_name(prefix, "commits"),
                                entry["commits"])
    return command.finish(
        report, "fuzz %s x %d variant(s)" % (args.workload, len(variants)))


def run_inject(args, parser):
    """Drive the mutant-efficacy campaign; returns an exit code."""
    # imported here: the figure targets must not pay for the faults stack
    from repro.faults.campaign import CHECKERS, run_campaign
    from repro.faults.mutants import MUTANTS

    command = SweepCommand(args, parser, "inject")
    report = run_campaign(
        mutants=csv_or_all(args.mutants, sorted(MUTANTS), "--mutants", parser),
        checkers=csv_or_all(args.checkers, CHECKERS, "--checkers", parser),
        workload=args.workload,
        include_baselines=not args.no_baselines,
        seeds=args.seeds,
        **command.run_kwargs
    )
    return command.finish(
        report, "inject %d mutant(s) x %d checker(s)"
        % (len(report.summary["mutants"]), len(report.summary["checkers"])))


def _fault_spec(text):
    """``--fault`` type: the spec text once it parses, or a usage error
    naming the rejected token."""
    # imported here: the figure targets must not pay for the faults stack
    from repro.faults.plan import FaultSpec

    try:
        FaultSpec.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    return text


def _sanitize_summary(specs, results):
    """The sanitize grid's reduce: per variant, the run's verdict, counts
    and first violation (or failure line); ``ok`` iff every run was
    clean."""
    from repro.sched.fuzz import first_line

    summary = {"workload": specs[0].workload, "variants": {}, "ok": True}
    for spec, result in zip(specs, results):
        if result.failed:
            entry = failed_cell(spec, result)
        else:
            outcome = result.run
            entry = {
                "failure": outcome.failure,
                "commits": outcome.commits,
                "aborts": outcome.aborts,
                "fired": len(outcome.fired),
                "first_violation": (outcome.violations or [None])[0],
                "detail": first_line(outcome.detail),
            }
        summary["variants"][spec.variant] = entry
        summary["ok"] = summary["ok"] and not entry.get("failure")
    return summary


def _render_sanitize(summary):
    """One line per variant, plus its first violation or failure."""
    lines = []
    for variant, entry in summary["variants"].items():
        head = "sanitize %s/%s: " % (summary["workload"], variant)
        if entry.get("failed"):
            lines.append(head + "FAILED (%s)" % entry["failure"])
            continue
        lines.append(head + "%s (%d commits, %d aborts, %d fault(s) fired)" % (
            "FAIL[%s]" % entry["failure"] if entry["failure"] else "clean",
            entry["commits"], entry["aborts"], entry["fired"]))
        if entry["first_violation"] is not None:
            lines.append("  first violation: %(check)s (tid=%(tid)s "
                         "addr=%(addr)s): %(detail)s"
                         % entry["first_violation"])
        elif entry["detail"]:
            lines.append("  %s" % entry["detail"])
    return "\n".join(lines)


def run_sanitize(args, parser):
    """Run one sanitized cell per variant (under the ``--fault`` specs);
    returns an exit code."""
    from repro.harness.parallel import ExploreCell, execute_explore

    variants = _variants(args)
    command = SweepCommand(args, parser, "sanitize")
    params = configs.test_workload_params(args.workload)
    report = run_sweep(
        [ExploreCell(args.workload, params, variant, "rr", sanitize=True,
                     fault_plan=args.fault) for variant in variants],
        execute_explore, _sanitize_summary,
        lambda report: _render_sanitize(report.summary),
        ("sanitize_summary.json", None), **command.run_kwargs
    )
    return command.finish(
        report, "sanitize %s x %d variant(s)" % (args.workload, len(variants)))


def _validate_artifacts(paths):
    """Validate telemetry artifacts; print the first failure, return 0/1."""
    from repro.telemetry.validate import validate_file

    for path in paths:
        try:
            validate_file(path)
        except (OSError, ValueError) as exc:
            print("ARTIFACT INVALID %s: %s" % (path, exc), file=sys.stderr)
            return 1
    return 0


def _trace_workload(args, out_dir):
    """Trace one workload/variant pair; returns the telemetry session."""
    from repro.harness.runner import run_workload
    from repro.telemetry import Telemetry
    from repro.workloads import make_workload

    variant = args.variant
    params = (configs.test_workload_params(args.experiment) if args.quick
              else configs.bench_workload_params(args.experiment))
    telemetry = Telemetry(
        timeline=True,
        meta={"workload": args.experiment, "variant": variant},
    )
    run_workload(
        make_workload(args.experiment, **params),
        variant,
        configs.bench_gpu(),
        stm_overrides=configs.egpgv_capacity(),
        telemetry=telemetry,
        allow_crash=True,
    )
    trace_path = os.path.join(
        out_dir, "%s-%s.trace.json" % (args.experiment, variant)
    )
    telemetry.write_timeline(trace_path)
    print("[trace -> %s]" % trace_path)
    return telemetry


def run_trace(args, parser):
    """Record Chrome-trace timelines + metrics; returns an exit code."""
    from repro.telemetry import MetricRegistry

    jobs = jobs_of(args, parser)
    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)
    metrics_path = args.metrics or os.path.join(out_dir, "metrics.json")

    started = time.time()
    if args.experiment in TARGETS:
        registry = MetricRegistry()
        result = run_figure(args.experiment, quick=args.quick, jobs=jobs,
                            metrics=registry, timeline_dir=out_dir)
        print(result.render())
        registry.write_json(metrics_path)
    else:
        telemetry = _trace_workload(args, out_dir)
        telemetry.write_metrics(metrics_path)
    print("[metrics -> %s]" % metrics_path)
    print("[trace %s in %.1fs, artifacts in %s]"
          % (args.experiment, time.time() - started, out_dir))
    artifacts = [metrics_path] + sorted(
        os.path.join(out_dir, name)
        for name in os.listdir(out_dir)
        if name.endswith(".trace.json")
    )
    return _validate_artifacts(artifacts)


def _seed_count(text):
    """``--seeds``: an integer >= 1, else a usage error."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("--seeds must be >= 1")
    return value


def run_figures(args, parser):
    """Regenerate the figure/table target (every one for ``all``);
    returns an exit code."""
    jobs = sweep_jobs(args, parser)
    registry = None
    if args.metrics:
        from repro.telemetry import MetricRegistry

        registry = MetricRegistry()
    names = sorted(TARGETS) if args.target == "all" else [args.target]
    failures = []
    for name in names:
        started = time.time()
        # targets sharing one --resume journal to PATH.<target>
        journal = args.resume or None
        if journal and len(names) > 1:
            journal = "%s.%s" % (journal, name)
        recorder = recorder_for(args, name)
        result = run_figure(name, quick=args.quick, jobs=jobs,
                            metrics=registry, retries=args.retries,
                            timeout=args.timeout, journal=journal,
                            recorder=recorder)
        print(result.render())
        print("[%s regenerated in %.1fs, jobs=%d]" % (name, time.time() - started, jobs))
        if recorder is not None and recorder.run_id is not None:
            print("[expdb run %d (%s)]"
                  % (recorder.run_id, recorder.run_key[:12]))
        print()
        failures.extend((name, failure) for failure in result.failures)
    if registry is not None:
        registry.write_json(args.metrics)
        print("[metrics -> %s]" % args.metrics)
    print_failures(failures, ", ".join(names))
    return 1 if failures else 0


def _add_workload(parser):
    parser.add_argument("--workload", default="ra", choices=WORKLOADS,
                        metavar="NAME", help="workload, at unit-test "
                        "geometry (default: ra)")


def _add_variant(parser, what, default="all"):
    """``--variant``: one STM variant, or ``all`` (the paper's seven)
    where that is the default."""
    parser.add_argument(
        "--variant", default=default, metavar="NAME",
        choices=STM_VARIANTS + EXTENSION_VARIANTS
        + (("all",) if default == "all" else ()),
        help="STM variant to %s (default: %s)" % (what, default),
    )


def build_parser():
    """The harness CLI's argument parser: one subcommand parser per
    target, each declaring only the flags that target reads."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Regenerate the paper's evaluation tables and figures, "
        "record telemetry timelines, or fuzz schedule interleavings.",
    )
    targets = parser.add_subparsers(dest="target", metavar="target",
                                    required=True)
    for name in sorted(TARGETS) + ["all"]:
        figure = targets.add_parser(name, help="regenerate %s" % name)
        figure.add_argument("--quick", action="store_true",
                            help="scaled-down geometry for a fast pass")
        add_sweep_flags(figure, None, metrics_file=True)
        figure.set_defaults(run=run_figures)

    trace = targets.add_parser("trace", help="record timelines + metrics")
    trace.add_argument("experiment", metavar="experiment",
                       choices=sorted(TARGETS) + list(WORKLOADS),
                       help="a figure/table or a workload name")
    trace.add_argument("--quick", action="store_true",
                       help="scaled-down geometry for a fast pass")
    _add_variant(trace, "trace a workload under", default="optimized")
    trace.add_argument("--jobs", type=worker_count, default=None,
                       metavar="N", help="figure sweep workers "
                       "(default: $REPRO_JOBS or 1)")
    trace.add_argument("--out", default="trace-artifacts", metavar="DIR",
                       help="artifact directory (default: %(default)s)")
    trace.add_argument("--metrics", default=None, metavar="FILE",
                       help="metrics JSON (default: DIR/metrics.json)")
    trace.set_defaults(run=run_trace)

    fuzz = targets.add_parser("fuzz", help="fuzz schedule interleavings")
    _add_workload(fuzz)
    _add_variant(fuzz, "fuzz")
    fuzz.add_argument("--seeds", type=_seed_count, default=8, metavar="N",
                      help="seeds per seeded policy template (default: 8)")
    fuzz.add_argument("--policy", action="append", metavar="SPEC",
                      help="policy template(s) to fuzz with; repeatable "
                      "(default: random + adversarial)")
    add_sweep_flags(fuzz, "fuzz-artifacts", metrics_file=True)
    fuzz.set_defaults(run=run_fuzz)

    sanitize = targets.add_parser("sanitize", help="run workloads under "
                                  "the online STM sanitizer")
    _add_workload(sanitize)
    _add_variant(sanitize, "sanitize")
    sanitize.add_argument("--fault", action="append", metavar="SPEC",
                          type=_fault_spec, help="fault spec "
                          "'kind:key=value,...' to inject; repeatable")
    add_sweep_flags(sanitize, "sanitize-artifacts", metrics_file=True)
    sanitize.set_defaults(run=run_sanitize)

    inject = targets.add_parser("inject", help="mutant-efficacy campaign")
    _add_workload(inject)
    inject.add_argument("--mutants", default="all", metavar="NAMES",
                        help="comma-separated mutant names, or 'all' "
                        "(default)")
    inject.add_argument("--checkers", default="oracle,sanitizer,fuzzer",
                        metavar="NAMES", help="comma-separated checker "
                        "subset (default: %(default)s)")
    inject.add_argument("--no-baselines", action="store_true",
                        help="skip the unmutated baseline runs")
    inject.add_argument("--seeds", type=_seed_count, default=2, metavar="N",
                        help="seeds per policy template of the fuzzer "
                        "checker (default: 2)")
    add_sweep_flags(inject, "fault-artifacts", metrics_file=True)
    inject.set_defaults(run=run_inject)

    for sub in targets.choices.values():
        # a target's usage errors print that target's usage
        sub.set_defaults(parser=sub)
    return parser


@sweep_main
def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.run(args, args.parser)


if __name__ == "__main__":
    sys.exit(main())
