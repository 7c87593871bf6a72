"""``python -m repro db`` — show, report on and verify the experiment DB.

Subcommands::

    last        show the newest run in full
    show        show one run (by id, run_key prefix, or "last")
    report      markdown dashboard over the whole database
    verify      re-hash a run's artifacts; non-zero exit on mismatch

Every subcommand takes ``--db PATH`` (default: ``$REPRO_EXPDB`` or
``expdb/experiments.sqlite``).  Sweeps record runs themselves
(``--expdb``, ``reproduce --db``).
"""

import argparse
import sys

from repro.common.cli import run_main
from repro.expdb.db import ExperimentDB, default_db_path


def _fmt_num(value):
    if value is None:
        return "-"
    if isinstance(value, float):
        return ("%.3f" % value).rstrip("0").rstrip(".")
    return str(value)


def _render_run(db, row, out):
    out.append("run %d  %s" % (row["id"], row["experiment"]))
    out.append("  run_key:     %s" % row["run_key"])
    out.append("  recorded_at: %s" % row["recorded_at"])
    dirty = row["git_dirty"]
    out.append("  git:         %s%s" % (
        row["git_sha"] or "-",
        "" if dirty is None else (" (dirty)" if dirty else " (clean)"),
    ))
    out.append("  seed:        %s" % _fmt_num(row["seed"]))
    out.append("  jobs:        %s total, %s failed" % (
        _fmt_num(row["jobs_total"]), _fmt_num(row["jobs_failed"])
    ))
    out.append("  wall:        %s s" % _fmt_num(row["wall_seconds"]))
    out.append("  sim_cycles:  %s" % _fmt_num(row["sim_cycles"]))
    failures = db.run_failures(row["id"])
    if failures:
        out.append("  failures:    %s" % ", ".join(
            "%s=%d" % (cat, n) for cat, n in sorted(failures.items())
        ))
    specs = db.run_specs(row["id"])
    if specs:
        out.append("  specs:       %d fingerprint(s)" % len(specs))
    metrics = db.run_metrics(row["id"])
    if metrics:
        out.append("  metrics:")
        for (kind, name), value in sorted(metrics.items()):
            out.append("    %-9s %-40s %s" % (kind, name, _fmt_num(value)))
    artifacts = db.run_artifacts(row["id"])
    if artifacts:
        out.append("  artifacts:")
        for artifact in artifacts:
            out.append("    %s  %s  (%d bytes)" % (
                artifact["sha256"][:16], artifact["path"], artifact["bytes"]
            ))


def cmd_show(db, args):
    row = db.resolve(args.ref, experiment=args.experiment)
    out = []
    _render_run(db, row, out)
    print("\n".join(out))
    return 0


def render_report(db):
    """The ``db report`` markdown dashboard, as text."""
    lines = ["# Experiment database report", ""]
    lines.append("Database: `%s`" % db.path)
    experiments = db.experiments()
    if not experiments:
        lines.append("")
        lines.append("_No recorded runs._")
    else:
        lines.append("")
        lines.append("| experiment | runs | latest run_key | jobs | failed |")
        lines.append("|---|---:|---|---:|---:|")
        for name, count in experiments:
            latest = db.runs(experiment=name, limit=1)[0]
            lines.append("| %s | %d | `%s` | %s | %s |" % (
                name, count, latest["run_key"][:12],
                _fmt_num(latest["jobs_total"]), _fmt_num(latest["jobs_failed"])
            ))
        for name, _count in experiments:
            latest = db.runs(experiment=name, limit=1)[0]
            failures = db.run_failures(latest["id"])
            artifacts = db.run_artifacts(latest["id"])
            lines.append("")
            lines.append("## %s" % name)
            lines.append("")
            lines.append(
                "Latest run `%s` — %s job(s), %s failed, %s simulated "
                "cycle(s)." % (
                    latest["run_key"][:12], _fmt_num(latest["jobs_total"]),
                    _fmt_num(latest["jobs_failed"]),
                    _fmt_num(latest["sim_cycles"]),
                )
            )
            if failures:
                lines.append("")
                lines.append("Failure taxonomy: " + ", ".join(
                    "%s=%d" % (cat, n) for cat, n in sorted(failures.items())
                ))
            if artifacts:
                lines.append("")
                lines.append("| artifact | sha256 | bytes |")
                lines.append("|---|---|---:|")
                for artifact in artifacts:
                    lines.append("| `%s` | `%s` | %d |" % (
                        artifact["path"], artifact["sha256"][:16],
                        artifact["bytes"]
                    ))
    return "\n".join(lines) + "\n"


def cmd_report(db, args):
    text = render_report(db)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print("wrote %s" % args.out)
    else:
        print(text, end="")
    return 0


def cmd_verify(db, args):
    row = db.resolve(args.ref)
    problems = db.verify_artifacts(row["id"], root=args.root)
    artifacts = db.run_artifacts(row["id"])
    if not problems:
        print("run %d: %d artifact(s) verified OK" % (
            row["id"], len(artifacts)
        ))
        return 0
    for problem in problems:
        if problem["actual"] is None:
            print("MISSING  %s (expected %s)" % (
                problem["path"], problem["expected"][:16]
            ))
        else:
            print("MISMATCH %s (expected %s, found %s)" % (
                problem["path"], problem["expected"][:16],
                problem["actual"][:16]
            ))
    print("run %d: %d of %d artifact(s) failed verification" % (
        row["id"], len(problems), len(artifacts)
    ))
    return 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro db",
        description="Show, report on and verify the experiment database.",
    )
    parser.add_argument("--db", default=None,
                        help="database file (default: $REPRO_EXPDB or %s)"
                        % default_db_path())
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("last", help="show the newest run")
    p.add_argument("--experiment", default=None)
    p.set_defaults(func=cmd_show, ref="last")

    p = sub.add_parser("show", help="show one run")
    p.add_argument("ref", help="run id, run_key prefix, or 'last'")
    p.add_argument("--experiment", default=None)
    p.set_defaults(func=cmd_show)

    p = sub.add_parser("report", help="markdown dashboard")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("verify", help="re-hash a run's artifacts")
    p.add_argument("ref", help="run id, run_key prefix, or 'last'")
    p.add_argument("--root", default=None,
                   help="directory resolving relative artifact paths")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    path = args.db or default_db_path()
    with ExperimentDB(path) as db:
        try:
            return args.func(db, args)
        except KeyError as exc:
            print("error: %s" % (exc.args[0] if exc.args else exc),
                  file=sys.stderr)
            return 2


if __name__ == "__main__":
    run_main(main)
