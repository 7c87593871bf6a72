"""``python -m repro reproduce`` — regenerate the full artifact bundle.

One command re-derives every figure and table of the paper through the
sweep executor (journaled, with two retries), records each sweep in the
experiment database, and leaves a verifiable bundle under ``--out``:

* ``<target>.txt`` — the rendered ASCII table/figure for each target;
* ``journals/<target>.journal`` — the sweep journals, so an interrupted
  (or repeated) reproduction resumes instead of recomputing: a second
  run against the same ``--out`` serves every job from the journal and
  re-renders **bit-identical** artifacts;
* ``manifest.json`` — the deterministic manifest: artifact path →
  SHA-256, byte size, the producing run's ``run_key`` and experiment
  name.  No ids, no timestamps — two honest reproductions of the same
  tree produce the same manifest, byte for byte;
* ``MANIFEST.md`` — the same manifest as a readable table;
* ``report.md`` — the experiment-DB dashboard (this one *does* carry
  run counts and timestamps; it describes the database, not the work).

``--smoke`` runs every target at the quick (scaled-down) geometry — the
shape CI's ``expdb-smoke`` job drives twice and diffs.
"""

import argparse
import os
import sys
import time

from repro.common.fsio import atomic_write_json, atomic_write_text
from repro.expdb.db import ExperimentDB, default_db_path
from repro.expdb.recorder import SweepRecorder
from repro.harness.experiments import TARGETS, run_figure
from repro.harness.sweep import (
    check_names,
    csv_or_all,
    jobs_of,
    print_failures,
    sweep_main,
    worker_count,
)

#: default bundle directory
DEFAULT_OUT_DIR = "reproduce-artifacts"


def _write_manifest(out_dir, manifest):
    manifest_path = os.path.join(out_dir, "manifest.json")
    atomic_write_json(manifest_path, manifest)
    lines = ["# Reproduction manifest", ""]
    lines.append("| artifact | sha256 | bytes | experiment | run_key |")
    lines.append("|---|---|---:|---|---|")
    for path in sorted(manifest):
        entry = manifest[path]
        lines.append("| `%s` | `%s` | %d | %s | `%s` |" % (
            path, entry["sha256"], entry["bytes"], entry["experiment"],
            entry["run_key"][:16],
        ))
    lines.append("")
    lines.append("Verify any artifact with `sha256sum <artifact>`, or the "
                 "whole recorded run with `python -m repro db verify last`.")
    atomic_write_text(os.path.join(out_dir, "MANIFEST.md"),
                      "\n".join(lines) + "\n")
    return manifest_path


def run_reproduce(out_dir=DEFAULT_OUT_DIR, db_path=None, smoke=False,
                  jobs=None, targets=None, quiet=False):
    """Regenerate ``targets`` (default: all); returns ``(manifest,
    failures)`` where ``failures`` is a list of ``(target, JobFailure)``.

    Every target runs journaled (``<out>/journals/<target>.journal``),
    with transient failures retried twice, and is recorded in the
    experiment database at ``db_path`` with its rendered artifact hash
    attached.
    """
    names = list(TARGETS) if targets is None else list(targets)
    check_names(names, TARGETS, "reproduce target")
    db_path = db_path or default_db_path()

    journal_dir = os.path.join(out_dir, "journals")
    os.makedirs(journal_dir, exist_ok=True)

    manifest = {}
    failures = []
    with ExperimentDB(db_path) as db:
        for name in names:
            started = time.time()
            recorder = SweepRecorder(db, name)
            result = run_figure(
                name, quick=smoke, jobs=jobs, retries=2,
                journal=os.path.join(journal_dir, "%s.journal" % name),
                recorder=recorder,
            )
            rel = "%s.txt" % name
            artifact = os.path.join(out_dir, rel)
            atomic_write_text(artifact, result.render() + "\n")
            entries = recorder.add_artifacts([artifact])
            manifest[rel] = {
                "sha256": entries[0][1],
                "bytes": entries[0][2],
                "experiment": name,
                "run_key": recorder.run_key,
            }
            failures.extend((name, failure) for failure in result.failures)
            if not quiet:
                print("[%s -> %s in %.1fs, expdb run %d (%s)]" % (
                    name, artifact, time.time() - started,
                    recorder.run_id, recorder.run_key[:12],
                ))

        manifest_path = _write_manifest(out_dir, manifest)

        from repro.expdb.cli import render_report

        report_path = os.path.join(out_dir, "report.md")
        atomic_write_text(report_path, render_report(db))
    if not quiet:
        print("[manifest -> %s]" % manifest_path)
        print("[report -> %s]" % report_path)
        print("[db -> %s]" % db_path)
    return manifest, failures


@sweep_main
def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="repro reproduce",
        description="Regenerate every figure/table, record the runs in the "
        "experiment database, and emit a hash-pinned manifest.",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="quick (scaled-down) geometry for every target",
    )
    parser.add_argument(
        "--jobs", type=worker_count, default=None, metavar="N",
        help="worker processes per sweep (default: $REPRO_JOBS or 1)",
    )
    parser.add_argument(
        "--out", default=DEFAULT_OUT_DIR, metavar="DIR",
        help="bundle directory (default: %s)" % DEFAULT_OUT_DIR,
    )
    parser.add_argument(
        "--db", default=None, metavar="PATH",
        help="experiment database (default: $REPRO_EXPDB or "
        "expdb/experiments.sqlite)",
    )
    parser.add_argument(
        "--targets", default="all", metavar="NAMES",
        help="comma-separated subset of targets (default: all)",
    )
    args = parser.parse_args(argv)
    targets = csv_or_all(args.targets, TARGETS, "--targets", parser)
    _manifest, failures = run_reproduce(
        out_dir=args.out, db_path=args.db, smoke=args.smoke,
        jobs=jobs_of(args, parser), targets=targets,
    )
    print_failures(failures, "the bundle")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
