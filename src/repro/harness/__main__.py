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
    python -m repro.harness chaos --jobs 2 --out chaos-artifacts

``--jobs N`` (or the ``REPRO_JOBS`` environment variable) fans the
independent runs of each sweep out over N worker processes; results are
identical to a serial run.  To profile the driving process, run the
module under cProfile with ``--jobs 1``::

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

The ``fuzz`` target runs the schedule-exploration fuzzer
(:mod:`repro.sched.fuzz`): N seeded schedules per policy template per STM
variant, every commit history checked by the strict-serializability
oracle, failing schedules shrunk and written under ``--out``.  Exit code
is 1 when any schedule produced a violation.

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

``--retries N`` / ``--timeout SECONDS`` / ``--resume PATH`` route the
figure/table sweeps (and ``inject``) through the supervision layer
(:mod:`repro.harness.supervisor`): bounded retry with backoff for
transient failures, per-job wall-clock timeouts (``--jobs`` > 1), and a
checkpoint journal at PATH so an interrupted sweep resumes where it
stopped (``all`` suffixes the journal per target).  Jobs that still
fail render as explicit FAILED gaps, a failure summary is printed, and
the exit code is 1 — see ``docs/resilience.md``.  A sweep flag a target
would ignore (``--resume``/``--retries``/``--timeout``/``--expdb`` on
``trace``, ``fuzz`` and ``sanitize``; all but ``--timeout`` on
``chaos``; ``--timeout`` with one worker) is a usage error.

The ``chaos`` target (:mod:`repro.harness.chaos`) is the supervision
layer's own proving ground: a supervised happy-path sweep, a sweep with
injected worker failures (error, SIGKILL, hang, armed fault), and a
kill-and-resume round-trip, each checked bit-identical against an
unsupervised reference run; ``--timeout`` is its hung-worker reaping
deadline (default 20 s).  Exit code 1 when any phase fails.
"""

import argparse
import os
import sys
import time

from repro.harness import configs
from repro.harness.experiments import TARGETS, run_figure
from repro.harness.parallel import default_jobs
from repro.harness.sweep import (
    SweepCommand,
    add_sweep_flags,
    csv,
    print_failures,
    recorder_for,
    supervision,
    sweep_jobs,
)

#: the sweep flags each non-figure target has no use for: passing one is
#: a usage error rather than a silently ignored flag
UNUSED_SWEEP_FLAGS = dict.fromkeys(
    ("fuzz", "trace", "sanitize"), ("resume", "retries", "timeout", "expdb"))
UNUSED_SWEEP_FLAGS["chaos"] = ("resume", "retries", "expdb")

#: workload names the ``trace`` target accepts for single-run timelines —
#: the registry's sorted roster, so new workloads are traceable on arrival
from repro.workloads import workload_names as _workload_names

TRACE_WORKLOADS = _workload_names()


def run_fuzz(args, jobs):
    """Drive the interleaving fuzzer from the CLI; returns an exit code."""
    # imported here: the figure targets must not pay for the fuzz stack
    from repro.stm import STM_VARIANTS
    from repro.sched.fuzz import fuzz_schedules

    variants = STM_VARIANTS if args.variant == "all" else [args.variant]
    policies = tuple(args.policy) if args.policy else ("random", "adversarial")
    params = configs.test_workload_params(args.workload)
    failed = False
    reports = []
    for variant in variants:
        started = time.time()
        report = fuzz_schedules(
            args.workload,
            params,
            variant,
            seeds=args.seeds if args.seeds is not None else 8,
            policies=policies,
            jobs=jobs,
            artifact_dir=args.out,
        )
        print(report.render())
        print("[fuzz %s/%s in %.1fs, jobs=%d]"
              % (args.workload, variant, time.time() - started, jobs))
        print()
        reports.append(report)
        failed = failed or report.found_violation
    if args.metrics:
        from repro.telemetry import MetricRegistry, metric_name

        registry = MetricRegistry()
        for report in reports:
            prefix = metric_name("fuzz", report.workload, report.variant)
            registry.add(metric_name(prefix, "schedules"), len(report.outcomes))
            registry.add(metric_name(prefix, "failures"), len(report.failures))
            registry.add(metric_name(prefix, "commits"),
                         sum(o.commits for o in report.outcomes))
        registry.write_json(args.metrics)
        print("[metrics -> %s]" % args.metrics)
    return 1 if failed else 0


def run_inject(args, parser):
    """Drive the mutant-efficacy campaign; returns an exit code."""
    # imported here: the figure targets must not pay for the faults stack
    from repro.faults.campaign import run_campaign

    command = SweepCommand(args, parser, "inject")
    report = run_campaign(
        mutants=None if args.mutants == "all" else csv(args.mutants),
        checkers=csv(args.checkers),
        workload=args.workload,
        include_baselines=not args.no_baselines,
        seeds=args.seeds if args.seeds is not None else 2,
        **command.run_kwargs
    )
    return command.finish(
        report, "inject %d mutant(s) x %d checker(s)"
        % (len(report.summary["mutants"]), len(report.summary["checkers"])),
        out_dir=args.out or "fault-artifacts",
    )


def run_chaos(args, jobs):
    """Drive the chaos harness; returns an exit code."""
    # imported here: the figure targets must not pay for the chaos stack
    from repro.harness.chaos import run_chaos as chaos_harness

    started = time.time()
    report = chaos_harness(
        jobs=max(2, jobs),
        out_dir=args.out or "chaos-artifacts",
        wall_timeout=args.timeout if args.timeout is not None else 20.0,
    )
    print(report.render())
    print("[chaos in %.1fs, jobs=%d]" % (time.time() - started, max(2, jobs)))
    return 0 if report.ok else 1


def _fault_spec(text):
    """``--fault`` type: a parsed spec, or a usage error naming the
    rejected token."""
    # imported here: the figure targets must not pay for the faults stack
    from repro.faults.plan import FaultSpec

    try:
        return FaultSpec.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def run_sanitize(args):
    """Run workloads under the online sanitizer; returns an exit code."""
    from repro.faults.sanitizer import StmSanitizer
    from repro.harness.runner import run_workload
    from repro.stm import STM_VARIANTS
    from repro.workloads import make_workload

    variants = STM_VARIANTS if args.variant == "all" else [args.variant]
    params = configs.test_workload_params(args.workload)
    failed = False
    for variant in variants:
        outcome = run_workload(
            make_workload(args.workload, **params),
            variant,
            configs.explore_gpu(),
            "rr",
            num_locks=16,
            capture=True,
            sanitizer=StmSanitizer(),
            fault_plan=args.fault or None,
        )
        status = "clean" if outcome.ok else "FAIL[%s]" % outcome.failure
        print("sanitize %s/%s: %s (%d commits, %d aborts, %d fault(s) fired)"
              % (args.workload, variant, status, outcome.commits,
                 outcome.aborts, len(outcome.fired)))
        if not outcome.ok:
            failed = True
            if outcome.violations:
                first = outcome.violations[0]
                print("  first violation: %(check)s (tid=%(tid)s addr=%(addr)s): "
                      "%(detail)s" % first)
            elif outcome.detail:
                print("  %s" % outcome.detail.splitlines()[0])
    return 1 if failed else 0


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

    variant = "optimized" if args.variant == "all" else args.variant
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


def run_trace(args, jobs, parser):
    """Record Chrome-trace timelines + metrics; returns an exit code."""
    from repro.telemetry import MetricRegistry

    if not args.experiment:
        parser.error(
            "trace needs an experiment: one of %s, or a workload (%s)"
            % (", ".join(sorted(TARGETS)), " ".join(TRACE_WORKLOADS))
        )
    out_dir = args.out or "trace-artifacts"
    os.makedirs(out_dir, exist_ok=True)
    metrics_path = args.metrics or os.path.join(out_dir, "metrics.json")

    started = time.time()
    if args.experiment in TARGETS:
        registry = MetricRegistry()
        result = run_figure(args.experiment, quick=args.quick, jobs=jobs,
                            metrics=registry, timeline_dir=out_dir)
        print(result.render())
        registry.write_json(metrics_path)
    elif args.experiment in TRACE_WORKLOADS:
        telemetry = _trace_workload(args, out_dir)
        telemetry.write_metrics(metrics_path)
    else:
        parser.error(
            "unknown trace experiment %r: expected one of %s, or a workload (%s)"
            % (args.experiment, ", ".join(sorted(TARGETS)),
               " ".join(TRACE_WORKLOADS))
        )
    print("[metrics -> %s]" % metrics_path)
    print("[trace %s in %.1fs, artifacts in %s]"
          % (args.experiment, time.time() - started, out_dir))
    artifacts = [metrics_path] + sorted(
        os.path.join(out_dir, name)
        for name in os.listdir(out_dir)
        if name.endswith(".trace.json")
    )
    return _validate_artifacts(artifacts)


def build_parser():
    """The harness CLI's argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Regenerate the paper's evaluation tables and figures, "
        "record telemetry timelines, or fuzz schedule interleavings.",
    )
    parser.add_argument(
        "target",
        choices=sorted(TARGETS)
        + ["all", "fuzz", "trace", "inject", "sanitize", "chaos"],
    )
    parser.add_argument(
        "experiment", nargs="?", default=None,
        help="for the trace target: a figure/table name or a workload name",
    )
    parser.add_argument(
        "--quick", action="store_true", help="scaled-down geometry for a fast pass"
    )
    add_sweep_flags(parser, None, jobs_default=None, metrics_file=True)
    fuzz_group = parser.add_argument_group("fuzz target")
    fuzz_group.add_argument(
        "--workload", default="ra",
        help="workload to fuzz (default: ra; uses unit-test geometry)",
    )
    fuzz_group.add_argument(
        "--variant", default="all",
        help="STM variant to fuzz or trace, or 'all' "
        "(default; trace reads it as 'optimized')",
    )
    fuzz_group.add_argument(
        "--seeds", type=int, default=None, metavar="N",
        help="seeds per seeded policy template (default: 8 for fuzz, "
        "2 for inject's fuzzer checker)",
    )
    fuzz_group.add_argument(
        "--policy", action="append", metavar="SPEC",
        help="policy template(s) to fuzz with; repeatable "
        "(default: random + adversarial)",
    )
    fault_group = parser.add_argument_group("inject / sanitize targets")
    fault_group.add_argument(
        "--mutants", default="all", metavar="NAMES",
        help="comma-separated mutant names for inject, or 'all' (default)",
    )
    fault_group.add_argument(
        "--checkers", default="oracle,sanitizer,fuzzer", metavar="NAMES",
        help="comma-separated checker subset for inject "
        "(default: oracle,sanitizer,fuzzer)",
    )
    fault_group.add_argument(
        "--no-baselines", action="store_true",
        help="inject: skip the unmutated false-positive baseline runs",
    )
    fault_group.add_argument(
        "--fault", action="append", metavar="SPEC", type=_fault_spec,
        help="sanitize: fault spec 'kind:key=value,...' to inject; repeatable",
    )
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.experiment is not None and args.target != "trace":
        parser.error("the experiment argument only applies to the trace target")
    for flag in UNUSED_SWEEP_FLAGS.get(args.target, ()):
        if getattr(args, flag) is not None:
            parser.error("--%s does not apply to the %s target"
                         % (flag, args.target))
    if args.target == "chaos":
        # chaos always runs max(2, --jobs) workers, so --timeout holds
        return run_chaos(args, args.jobs or default_jobs())
    jobs = sweep_jobs(args, parser)

    if args.target == "fuzz":
        return run_fuzz(args, jobs)
    if args.target == "trace":
        return run_trace(args, jobs, parser)
    if args.target == "inject":
        return run_inject(args, parser)
    if args.target == "sanitize":
        return run_sanitize(args)

    registry = None
    if args.metrics:
        from repro.telemetry import MetricRegistry

        registry = MetricRegistry()
    names = sorted(TARGETS) if args.target == "all" else [args.target]
    failures = []
    supervise = supervision(args)
    for name in names:
        started = time.time()
        # targets sharing one --resume journal to PATH.<target>
        journal = args.resume or None
        if journal and len(names) > 1:
            journal = "%s.%s" % (journal, name)
        recorder = recorder_for(args, name)
        result = run_figure(name, quick=args.quick, jobs=jobs,
                            metrics=registry, supervise=supervise,
                            journal=journal, recorder=recorder)
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


if __name__ == "__main__":
    sys.exit(main())
