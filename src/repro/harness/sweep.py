"""The sweep layer: a grid of cells through the pool, one report, one CLI.

Every figure of the paper, the ledger service, and the captured-run
targets (``fuzz``, ``sanitize``, ``inject``, ``byz``, ``multigpu``) is a
grid of independent :class:`~repro.harness.parallel.Cell` s through the
one executor, :func:`~repro.harness.parallel.run_jobs` (optionally
retried, journaled, recorded).  There are three
cells, each with one executor: the figures' ``JobSpec``, the captured
runs' ``ExploreCell`` and the service's ``ServiceJobSpec``.  A sweep
keeps its grid, summary (the reduce) and renderer; :func:`run_sweep`,
:class:`SweepReport`, :func:`write_artifacts` and the CLI front-end
(:func:`add_sweep_flags`, :class:`SweepCommand`) are shared.  See
docs/resilience.md, "The sweep layer".
"""

import argparse
import os
import sys
import time

from repro.harness.parallel import default_jobs, merge_job_metrics, run_jobs


class SweepReport:
    """One finished sweep: cells and results in cell order, the kind's
    deterministic ``summary``, and the wall time.

    ``files`` names the artifacts :func:`write_artifacts` writes: the
    summary JSON and, optionally, the rendered text.  A summary carrying
    its own verdict under ``"ok"`` (the campaign matrices fold failed
    cells into it) decides :attr:`ok`; otherwise any failed cell fails
    the sweep.
    """

    def __init__(self, specs, results, summary, wall_seconds, renderer=None,
                 files=(None, None)):
        self.specs = specs
        self.results = results
        self.summary = summary
        self.wall_seconds = wall_seconds
        self.renderer = renderer
        self.files = files
        self.failures = failures_of(results)

    @property
    def ok(self):
        if isinstance(self.summary, dict) and "ok" in self.summary:
            return self.summary["ok"]
        return not self.failures

    def render(self):
        return self.renderer(self)


def failures_of(results):
    """The :class:`~repro.harness.parallel.JobFailure` of every failed
    result, in order."""
    return [r.as_failure() for r in results if r.failed]


def run_sweep(specs, executor=None, summarize=None, render=None,
              files=(None, None), metrics=None, **run):
    """Run ``specs`` through the pool; returns a :class:`SweepReport`.

    ``executor`` and ``run`` (``jobs``/``retries``/``timeout``/
    ``journal``/``recorder``) go to
    :func:`~repro.harness.parallel.run_jobs`.  ``metrics`` (a
    ``MetricRegistry``) receives the supervisor's counters and, after the
    sweep, every cell's worker registry.  ``summarize(specs, results)``
    builds the report's deterministic summary; ``render(report)`` its
    text; ``files`` its artifact names (see :func:`write_artifacts`).
    """
    specs = list(specs)
    started = time.perf_counter()
    results = run_jobs(specs, executor=executor, metrics=metrics, **run)
    wall = time.perf_counter() - started
    if metrics is not None:
        merge_job_metrics(results, into=metrics)
    summary = summarize(specs, results) if summarize is not None else None
    return SweepReport(specs, results, summary, wall, render, files)


def check_names(names, universe, what):
    """Raise ``ValueError`` naming every entry of ``names`` not in
    ``universe``."""
    unknown = [name for name in names if name not in universe]
    if unknown:
        raise ValueError("unknown %s(s) %s; available: %s" % (
            what, ", ".join(unknown), ", ".join(universe)))


def failed_cell(spec, result):
    """The summary entry of a failed cell."""
    return {"key": spec.key, "failed": True, "failure": result.brief_error()}


def write_artifacts(report, out_dir):
    """Write ``report``'s artifacts under ``out_dir``; returns the paths of
    the deterministic ones.

    The summary JSON (``files[0]``) and the rendered text (``files[1]``,
    when named) are deterministic.  ``run_info.json`` holds everything
    wall-clock or machine-specific — sweep and per-cell seconds, the
    provenance snapshot (git SHA + dirty flag, interpreter and package
    versions; see :mod:`repro.expdb.provenance`) — so reruns diff clean.
    """
    from repro.common.fsio import atomic_write_json, atomic_write_text
    from repro.expdb.provenance import provenance_snapshot

    summary_name, text_name = report.files
    os.makedirs(out_dir, exist_ok=True)
    paths = [os.path.join(out_dir, summary_name)]
    atomic_write_json(paths[0], report.summary)
    if text_name is not None:
        paths.append(os.path.join(out_dir, text_name))
        atomic_write_text(paths[1], report.render())
    cells = {}
    for spec, result in zip(report.specs, report.results):
        seconds = None if result.failed else getattr(
            result.run, "wall_seconds", None)
        cells[str(spec.key)] = {
            "wall_seconds": None if seconds is None else round(seconds, 6)
        }
    atomic_write_json(os.path.join(out_dir, "run_info.json"), {
        "wall_seconds": round(report.wall_seconds, 3),
        "provenance": provenance_snapshot(),
        "cells": cells,
    })
    return paths


# ----------------------------------------------------------------------
# The shared command-line front-end
# ----------------------------------------------------------------------

def worker_count(text):
    """``--jobs``: an integer >= 1, else a usage error."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("--jobs must be >= 1")
    return value


def _retry_count(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("--retries must be >= 0")
    return value


def timeout_seconds(text):
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError("--timeout must be > 0")
    return value


def add_sweep_flags(parser, out_default, metrics_file=False, timeline=False):
    """Add the execution and artifact flag groups every sweep CLI shares.

    ``out_default=None`` adds no ``--out`` (the target writes no
    artifacts); ``metrics_file`` makes ``--metrics`` take a FILE instead
    of writing DIR/metrics.json; ``timeline`` adds ``--timeline``
    (per-cell Chrome traces).
    """
    execution = parser.add_argument_group("execution")
    execution.add_argument(
        "--jobs", type=worker_count, default=None, metavar="N",
        help="worker processes for the sweep (default: $REPRO_JOBS or 1)",
    )
    execution.add_argument(
        "--retries", type=_retry_count, default=0, metavar="N",
        help="retry transient cell failures up to N times with backoff "
        "(default: 0)",
    )
    execution.add_argument(
        "--timeout", type=timeout_seconds, default=None, metavar="SECONDS",
        help="per-cell wall-clock timeout; the worker is killed and the "
        "attempt retried as transient (needs --jobs > 1)",
    )
    execution.add_argument(
        "--resume", default=None, metavar="PATH",
        help="checkpoint journal: completed cells are recorded at PATH and "
        "served back bit-identically on re-run",
    )
    artifacts = parser.add_argument_group("artifacts")
    if out_default is not None:
        artifacts.add_argument(
            "--out", default=out_default, metavar="DIR",
            help="artifact directory (default: %s)" % out_default,
        )
    if metrics_file:
        artifacts.add_argument(
            "--metrics", default=None, metavar="FILE",
            help="write the merged telemetry metric registry as JSON to FILE",
        )
    else:
        artifacts.add_argument(
            "--metrics", action="store_true",
            help="also write the merged telemetry registry to DIR/metrics.json",
        )
    if timeline:
        artifacts.add_argument(
            "--timeline", action="store_true",
            help="also record a Chrome-trace timeline per cell under "
            "DIR/timelines/",
        )
    artifacts.add_argument(
        "--expdb", default=None, metavar="PATH",
        help="record the sweep (fingerprints, metrics, artifact hashes) in "
        "the experiment database at PATH ('default' for $REPRO_EXPDB or "
        "expdb/experiments.sqlite)",
    )


def jobs_of(args, parser):
    """The worker count ``--jobs``, else ``$REPRO_JOBS``, else 1; a
    ``$REPRO_JOBS`` that is not an integer >= 1 is a usage error."""
    if args.jobs is not None:
        return args.jobs
    try:
        return default_jobs()
    except ValueError as exc:
        parser.error(str(exc))


def sweep_jobs(args, parser):
    """The worker count :func:`jobs_of` resolves, for a sweep.

    ``--timeout`` with one worker is a usage error: cells then run in
    this process, where no wall-clock timeout can stop them.
    """
    jobs = jobs_of(args, parser)
    if jobs <= 1 and args.timeout is not None:
        parser.error("--timeout needs --jobs 2 or more: one worker runs "
                     "cells in-process, where no timeout can stop them")
    return jobs


def recorder_for(args, experiment, seed=None, summary=None):
    """The experiment-DB recorder ``--expdb`` asks for, or ``None``."""
    if not args.expdb:
        return None
    from repro.expdb import SweepRecorder, default_db_path

    db_path = default_db_path() if args.expdb == "default" else args.expdb
    return SweepRecorder(db_path, experiment, seed=seed, summary=summary)


class SweepCommand:
    """One sweep invocation wired from the shared flags.

    Pass :attr:`run_kwargs` to the kind's driver, then hand the report
    to :meth:`finish`, which prints, writes the artifacts and metrics,
    attaches the artifacts to the expdb run and returns the exit code.
    """

    def __init__(self, args, parser, experiment, seed=None, summary=None):
        self.args = args
        self.started = time.time()
        self.jobs = sweep_jobs(args, parser)
        self.metrics = None
        if args.metrics:
            from repro.telemetry import MetricRegistry

            self.metrics = MetricRegistry()
        self.recorder = recorder_for(args, experiment, seed, summary)
        self.run_kwargs = dict(jobs=self.jobs, retries=args.retries,
                               timeout=args.timeout, journal=args.resume,
                               metrics=self.metrics, recorder=self.recorder)

    def finish(self, report, label):
        out_dir = self.args.out
        print(report.render())
        paths = write_artifacts(report, out_dir)
        print("[artifacts -> %s]" % ", ".join(paths))
        if self.metrics is not None:
            metrics_path = self.args.metrics
            if not isinstance(metrics_path, str):
                metrics_path = os.path.join(out_dir, "metrics.json")
            self.metrics.write_json(metrics_path)
            print("[metrics -> %s]" % metrics_path)
        recorder = self.recorder
        if recorder is not None and recorder.run_id is not None:
            recorder.add_artifacts(paths)
            print("[expdb run %d (%s)]" % (recorder.run_id,
                                           recorder.run_key[:12]))
        print("[%s: %d cell(s) in %.1fs, jobs=%d]"
              % (label, len(report.specs), time.time() - self.started,
                 self.jobs))
        print_failures([(label, f) for f in report.failures], label)
        return 0 if report.ok else 1


def print_failures(failures, where):
    """Print the roster of ``(label, JobFailure)`` pairs to stderr."""
    if failures:
        print("%d job(s) failed across %s:" % (len(failures), where),
              file=sys.stderr)
    for label, failure in failures:
        print("  %s %r: %s" % (label, failure.key, failure.brief()),
              file=sys.stderr)


def csv(text):
    """The non-empty, stripped items of a comma-separated string."""
    return [part.strip() for part in text.split(",") if part.strip()]


def csv_or_all(text, universe, flag, parser):
    """Names from a comma-separated flag value, or all of ``universe``
    for ``all``; unknown names are a usage error."""
    if text.strip() == "all":
        return list(universe)
    names = csv(text)
    if not names:
        parser.error("%s expects at least one name" % flag)
    try:
        check_names(names, universe, flag.lstrip("-").rstrip("s"))
    except ValueError as exc:
        parser.error(str(exc))
    return names


def number_list(values, flag, parser, cast=float):
    """Numbers from repeatable, comma-separated flag values."""
    out = []
    for value in values:
        for part in csv(value):
            try:
                out.append(cast(part))
            except ValueError:
                parser.error("%s expects numbers, got %r" % (flag, part))
    return tuple(out)
