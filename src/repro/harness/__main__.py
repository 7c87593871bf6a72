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

``fuzz``, ``sanitize`` and ``inject`` are grids of one captured-run
cell (:class:`repro.sched.fuzz.ExploreCell`) on the shared sweep layer
(:mod:`repro.harness.sweep`), so they run on the pool under ``--jobs``,
take the sweep flags below and write a deterministic summary JSON plus
``run_info.json`` under ``--out``.  A cell that errors is listed in the
failure roster and exits 1.  ``--variant`` is one STM variant or ``all``
(the paper's seven); an unknown variant, workload or mutant, or
``--seeds`` below 1, is a usage error (exit 2) before any cell runs.

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

``--retries N`` / ``--timeout SECONDS`` / ``--resume PATH`` route the
figure/table sweeps (and ``fuzz``, ``sanitize`` and ``inject``) through
the supervision layer (:mod:`repro.harness.supervisor`): bounded retry
with backoff for transient failures, per-job wall-clock timeouts
(``--jobs`` > 1), and a checkpoint journal at PATH so an interrupted
sweep resumes where it stopped (``all`` suffixes the journal per
target).  Jobs that still fail render as explicit FAILED gaps, a failure
summary is printed, and the exit code is 1 — see ``docs/resilience.md``.
A sweep flag a target would ignore (``--resume``/``--retries``/
``--timeout``/``--expdb`` on ``trace``; all but ``--timeout`` on
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
    check_names,
    csv_or_all,
    failed_cell,
    print_failures,
    recorder_for,
    run_sweep,
    supervision,
    sweep_jobs,
)
from repro.workloads import workload_names

#: the sweep flags each non-figure target has no use for: passing one is
#: a usage error rather than a silently ignored flag
UNUSED_SWEEP_FLAGS = {
    "trace": ("resume", "retries", "timeout", "expdb"),
    "chaos": ("resume", "retries", "expdb"),
}

#: workload names ``trace`` (single-run timelines), ``fuzz``, ``sanitize``
#: and ``inject`` accept: the registry's sorted roster, so new workloads
#: are usable on arrival
WORKLOADS = workload_names()


def run_fuzz(args, parser, variants):
    """Drive the interleaving fuzzer's grid; returns an exit code."""
    # imported here: the figure targets must not pay for the fuzz stack
    from repro.sched.fuzz import SEEDED_TEMPLATES, fuzz_schedules

    command = SweepCommand(args, parser, "fuzz")
    out_dir = args.out or "fuzz-artifacts"
    report = fuzz_schedules(
        args.workload,
        configs.test_workload_params(args.workload),
        variants,
        seeds=args.seeds if args.seeds is not None else 8,
        policies=args.policy or SEEDED_TEMPLATES,
        artifact_dir=out_dir,
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
        report, "fuzz %s x %d variant(s)" % (args.workload, len(variants)),
        out_dir=out_dir,
    )


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


def run_sanitize(args, parser, variants):
    """Run one sanitized cell per variant (under the ``--fault`` specs);
    returns an exit code."""
    from repro.sched.fuzz import ExploreCell, execute_explore

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
        report, "sanitize %s x %d variant(s)" % (args.workload, len(variants)),
        out_dir=args.out or "sanitize-artifacts",
    )


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
            % (", ".join(sorted(TARGETS)), " ".join(WORKLOADS))
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
    elif args.experiment in WORKLOADS:
        telemetry = _trace_workload(args, out_dir)
        telemetry.write_metrics(metrics_path)
    else:
        parser.error(
            "unknown trace experiment %r: expected one of %s, or a workload (%s)"
            % (args.experiment, ", ".join(sorted(TARGETS)),
               " ".join(WORKLOADS))
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


def _check_name(parser, name, universe, what):
    """``name`` when ``universe`` holds it, else a usage error."""
    try:
        check_names([name], universe, what)
    except ValueError as exc:
        parser.error(str(exc))
    return name


def _variants(args, parser):
    """The STM variants ``--variant`` names: ``all`` is the paper's seven
    (trace reads it as ``optimized``)."""
    from repro.stm import EXTENSION_VARIANTS, STM_VARIANTS

    if args.variant == "all":
        return list(STM_VARIANTS)
    return [_check_name(parser, args.variant,
                        STM_VARIANTS + EXTENSION_VARIANTS, "variant")]


def _seed_count(text):
    """``--seeds``: an integer >= 1, else a usage error."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("--seeds must be >= 1")
    return value


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
        "--seeds", type=_seed_count, default=None, metavar="N",
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
    if args.target in ("fuzz", "sanitize", "inject"):
        _check_name(parser, args.workload, WORKLOADS, "workload")
    if args.target in ("fuzz", "sanitize", "trace"):
        variants = _variants(args, parser)
    if args.target == "fuzz":
        return run_fuzz(args, parser, variants)
    if args.target == "sanitize":
        return run_sanitize(args, parser, variants)
    if args.target == "inject":
        return run_inject(args, parser)
    jobs = sweep_jobs(args, parser)
    if args.target == "trace":
        return run_trace(args, jobs, parser)

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
