"""List the functions under ``src/repro`` that no process of a command enters.

    python scripts/uncalled.py                       # tier-1
    python scripts/uncalled.py "python -m pytest -x -q" \\
        "PYTHONPATH=src python -m repro.harness all --quick --jobs 2"

Each argument is one shell command, run from the repository root; the
default is the tier-1 suite.  ``uncalled_sitecustomize.py`` is installed
as ``sitecustomize`` on ``PYTHONPATH``, so every Python process the
commands start logs the first call of each ``repro`` function.  The
report is every ``def`` (nested ones too) that no process of any
command entered, with its length in lines.  Base stubs are listed
apart: bodies that only ``pass``, ``...`` or ``raise
NotImplementedError``, and one-``return`` defaults a subclass redefines.

A command that builds its child's environment from scratch drops the
hook, so what only such a child runs is reported as never entered.  The
hook costs every Python call a profile callback: tier-1 runs about five
times slower, so this is an on-demand audit, not a CI step.  Exits 1 if
a command failed (its profile is incomplete), else 0.
"""

import ast
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.realpath(os.path.join(os.path.dirname(__file__), os.pardir))
PACKAGE = os.path.join(ROOT, "src", "repro")
HOOK = os.path.join(ROOT, "scripts", "uncalled_sitecustomize.py")
TIER1 = "python -m pytest -x -q"


def stub_kind(node):
    """``"stub"`` for a body that is only a docstring, ``pass``, ``...``
    or ``raise NotImplementedError``; ``"return"`` for a lone ``return``
    statement (a default, when a subclass redefines it); else None."""
    body = node.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    if not body:
        return "stub"
    if len(body) > 1:
        return None
    stmt = body[0]
    if isinstance(stmt, ast.Return):
        return "return"
    if isinstance(stmt, ast.Pass):
        return "stub"
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
        return "stub" if stmt.value.value is Ellipsis else None
    if isinstance(stmt, ast.Raise) and stmt.exc is not None:
        exc = stmt.exc.func if isinstance(stmt.exc, ast.Call) else stmt.exc
        if isinstance(exc, ast.Name) and exc.id == "NotImplementedError":
            return "stub"
    return None


def scan(path, classes):
    """``(first line, qualified name, lines, stub kind)`` for every ``def`` in
    ``path``; the first line is the first decorator's, as in
    ``co_firstlineno``.  Records each class's base names and method names
    in ``classes``."""
    with open(path) as handle:
        tree = ast.parse(handle.read(), path)
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                name = prefix + child.name
                found.append((first, name, child.end_lineno - first + 1, stub_kind(child)))
                visit(child, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                bases = {base.id if isinstance(base, ast.Name) else base.attr
                         for base in child.bases
                         if isinstance(base, (ast.Name, ast.Attribute))}
                methods = {item.name for item in child.body
                           if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))}
                classes.append((child.name, bases, methods))
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return found


def overridden(qualname, classes):
    """Whether ``Class.method`` is redefined by a subclass (by class
    name, transitively) anywhere under ``src/repro``."""
    owner, _, method = qualname.rpartition(".")
    if not owner or "." in owner:
        return False
    seen, frontier = set(), {owner}
    while frontier:
        subclasses = {name for name, bases, _m in classes
                      if bases & frontier and name not in seen}
        if any(method in methods for name, _b, methods in classes
               if name in subclasses):
            return True
        seen |= subclasses
        frontier = subclasses
    return False


def profile(commands):
    """Run ``commands`` under the hook; return the set of entered
    ``(path, first line)`` and whether every command exited 0."""
    hook_dir = tempfile.mkdtemp(prefix="uncalled-")
    try:
        shutil.copy(HOOK, os.path.join(hook_dir, "sitecustomize.py"))
        os.mkdir(os.path.join(hook_dir, "calls"))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [hook_dir, os.path.join(ROOT, "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        ok = True
        for command in commands:
            code = subprocess.call(command, shell=True, cwd=ROOT, env=env)
            if code:
                print("uncalled: %r exited %d; its profile is incomplete"
                      % (command, code), file=sys.stderr)
                ok = False
        entered = set()
        calls = os.path.join(hook_dir, "calls")
        for name in os.listdir(calls):
            with open(os.path.join(calls, name)) as log:
                for line in log:
                    path, _, first = line.rstrip("\n").rpartition(":")
                    entered.add((path, int(first)))
        return entered, ok
    finally:
        shutil.rmtree(hook_dir, ignore_errors=True)


def main(argv):
    commands = argv or [TIER1]
    entered, ok = profile(commands)
    classes = []
    defs = []
    for dirpath, dirnames, filenames in os.walk(PACKAGE):
        dirnames[:] = sorted(name for name in dirnames if name != "__pycache__")
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                path = os.path.join(dirpath, filename)
                defs.extend((path,) + found for found in scan(path, classes))
    never = [(os.path.relpath(path, ROOT), first, name, lines,
              kind == "stub" or (kind == "return" and overridden(name, classes)))
             for path, first, name, lines, kind in defs
             if (path, first) not in entered]
    for title, base in (("never entered", False),
                        ("never-entered base stubs", True)):
        rows = [row for row in never if row[4] == base]
        print("%s: %d functions, %d lines" % (title, len(rows), sum(r[3] for r in rows)))
        for path, first, name, lines, _base in rows:
            print("  %s:%d  %s  (%d lines)" % (path, first, name, lines))
    print("%d of %d functions under src/repro never entered" % (len(never), len(defs)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
