"""``python -m repro db`` — query, diff and report on the experiment DB.

Subcommands::

    record      record an ad-hoc run (artifacts hashed, provenance taken)
    query       list recorded runs (optionally one experiment)
    last        show the newest run in full
    show        show one run (by id, run_key prefix, or "last")
    diff        metric/failure/spec deltas between two runs (bit-stable)
    report      markdown dashboard over the whole database
    verify      re-hash a run's artifacts; non-zero exit on mismatch

Every subcommand takes ``--db PATH`` (default: ``$REPRO_EXPDB`` or
``expdb/experiments.sqlite``).  ``diff`` output is deliberately
deterministic — no ids or timestamps, metrics sorted by name — so
diffing the same two runs twice is bit-identical.
"""

import argparse
import hashlib
import json
import sys

from repro.common.cli import run_main
from repro.expdb.db import ExperimentDB, RunRecord, default_db_path
from repro.expdb.provenance import provenance_snapshot
from repro.expdb.recorder import hash_file


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


def cmd_record(db, args):
    summary = None
    if args.summary_json:
        with open(args.summary_json, "r", encoding="utf-8") as handle:
            summary = json.load(handle)
    artifacts = []
    for path in args.artifact or ():
        sha, size = hash_file(path)
        artifacts.append((path, sha, size))
    if args.run_key:
        run_key = args.run_key
    else:
        # no spec fingerprints for an ad-hoc run: pin the key to the
        # artifact hashes (the work's observable output) instead
        digest = hashlib.sha256(args.experiment.encode("utf-8"))
        for _path, sha, _size in sorted(artifacts, key=lambda e: e[1]):
            digest.update(b"\x00")
            digest.update(sha.encode("ascii"))
        run_key = digest.hexdigest()
    run_id = db.record_run(RunRecord(
        args.experiment,
        run_key,
        provenance=provenance_snapshot(),
        seed=args.seed,
        summary=summary,
        artifacts=artifacts,
    ))
    print("recorded run %d (%s) in %s" % (run_id, run_key[:12], db.path))
    return 0


def cmd_query(db, args):
    rows = db.runs(experiment=args.experiment, limit=args.limit)
    if not rows:
        print("no recorded runs in %s" % db.path)
        return 0
    print("%-5s %-22s %-13s %-20s %-6s %-11s %s" % (
        "id", "experiment", "run_key", "recorded_at", "seed", "jobs", "wall_s"
    ))
    for row in rows:
        jobs = "-"
        if row["jobs_total"] is not None:
            jobs = "%d/%d ok" % (
                (row["jobs_total"] or 0) - (row["jobs_failed"] or 0),
                row["jobs_total"],
            )
        print("%-5d %-22s %-13s %-20s %-6s %-11s %s" % (
            row["id"], row["experiment"], row["run_key"][:12],
            row["recorded_at"], _fmt_num(row["seed"]), jobs,
            _fmt_num(row["wall_seconds"]),
        ))
    return 0


def cmd_show(db, args):
    row = db.resolve(args.ref, experiment=args.experiment)
    out = []
    _render_run(db, row, out)
    print("\n".join(out))
    return 0


def _flatten_cells(summary):
    """``{(cell, field): number}`` from a run summary's ``cells`` blob.

    Nested dicts flatten with dotted field names (``latency_cycles.p99``);
    non-numeric leaves are skipped — diffing is arithmetic.
    """
    flat = {}

    def walk(cell, prefix, value):
        if isinstance(value, dict):
            for name in value:
                walk(cell, "%s.%s" % (prefix, name) if prefix else name,
                     value[name])
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            flat[(cell, prefix)] = value

    for cell, payload in ((summary or {}).get("cells") or {}).items():
        walk(cell, "", payload)
    return flat


def cmd_diff(db, args):
    a = db.resolve(args.a)
    b = db.resolve(args.b)
    out = []
    out.append("diff: %s (%s) vs %s (%s)" % (
        a["run_key"][:12], a["experiment"], b["run_key"][:12], b["experiment"]
    ))
    out.append("work: %s" % (
        "identical run_key" if a["run_key"] == b["run_key"]
        else "different run_key"
    ))
    for field in ("seed", "jobs_total", "jobs_failed", "sim_cycles"):
        va, vb = a[field], b[field]
        if va != vb:
            out.append("%s: %s -> %s" % (field, _fmt_num(va), _fmt_num(vb)))

    specs_a = [s["fingerprint"] for s in db.run_specs(a["id"])]
    specs_b = [s["fingerprint"] for s in db.run_specs(b["id"])]
    if specs_a or specs_b:
        if specs_a == specs_b:
            out.append("specs: %d fingerprint(s), all identical" % len(specs_a))
        else:
            differing = sum(
                1 for fa, fb in zip(specs_a, specs_b) if fa != fb
            ) + abs(len(specs_a) - len(specs_b))
            out.append("specs: %d vs %d fingerprint(s), %d differ" % (
                len(specs_a), len(specs_b), differing
            ))

    failures_a = db.run_failures(a["id"])
    failures_b = db.run_failures(b["id"])
    for category in sorted(set(failures_a) | set(failures_b)):
        ca, cb = failures_a.get(category, 0), failures_b.get(category, 0)
        if ca != cb:
            out.append("failures.%s: %d -> %d" % (category, ca, cb))

    metrics_a = db.run_metrics(a["id"])
    metrics_b = db.run_metrics(b["id"])
    names = sorted(set(metrics_a) | set(metrics_b))
    changed = []
    for key in names:
        va, vb = metrics_a.get(key), metrics_b.get(key)
        if va == vb:
            continue
        if va is None or vb is None:
            changed.append("  %-9s %-40s %s -> %s" % (
                key[0], key[1], _fmt_num(va), _fmt_num(vb)
            ))
        else:
            changed.append("  %-9s %-40s %s -> %s (%+g)" % (
                key[0], key[1], _fmt_num(va), _fmt_num(vb), vb - va
            ))
    if changed:
        out.append("metrics (%d changed of %d):" % (len(changed), len(names)))
        out.extend(changed)
    elif names:
        out.append("metrics: %d recorded, all identical" % len(names))

    cells_a = _flatten_cells(db.run_summary(a["id"]))
    cells_b = _flatten_cells(db.run_summary(b["id"]))
    cell_keys = sorted(set(cells_a) | set(cells_b))
    cell_changes = []
    for key in cell_keys:
        va, vb = cells_a.get(key), cells_b.get(key)
        if va == vb:
            continue
        if va is None or vb is None:
            cell_changes.append("  %-30s %-20s %s -> %s" % (
                key[0], key[1], _fmt_num(va), _fmt_num(vb)
            ))
        else:
            cell_changes.append("  %-30s %-20s %s -> %s (%+g)" % (
                key[0], key[1], _fmt_num(va), _fmt_num(vb), vb - va
            ))
    if cell_changes:
        out.append("cells (%d value(s) changed of %d):"
                   % (len(cell_changes), len(cell_keys)))
        out.extend(cell_changes)
    elif cell_keys:
        out.append("cells: %d value(s) recorded, all identical"
                   % len(cell_keys))
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
        description="Query and report on the experiment database.",
    )
    parser.add_argument("--db", default=None,
                        help="database file (default: $REPRO_EXPDB or %s)"
                        % default_db_path())
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("record", help="record an ad-hoc run")
    p.add_argument("experiment")
    p.add_argument("--artifact", action="append",
                   help="artifact file to hash and attach (repeatable)")
    p.add_argument("--summary-json", help="JSON file stored as the summary")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--run-key", default=None,
                   help="explicit run key (default: derived from artifacts)")
    p.set_defaults(func=cmd_record)

    p = sub.add_parser("query", help="list recorded runs")
    p.add_argument("--experiment", default=None)
    p.add_argument("--limit", type=int, default=20)
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("last", help="show the newest run")
    p.add_argument("--experiment", default=None)
    p.set_defaults(func=cmd_show, ref="last")

    p = sub.add_parser("show", help="show one run")
    p.add_argument("ref", help="run id, run_key prefix, or 'last'")
    p.add_argument("--experiment", default=None)
    p.set_defaults(func=cmd_show)

    p = sub.add_parser("diff", help="compare two runs")
    p.add_argument("a", help="run id, run_key prefix, or 'last'")
    p.add_argument("b")
    p.set_defaults(func=cmd_diff)

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
