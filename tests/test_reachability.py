"""Every ``repro`` module is reachable from an entry point.

Walks the static import graph of ``src/repro`` with stdlib ``ast`` —
imports inside functions count — from the program's entry points:

* ``python -m repro`` and the subcommand modules its dispatcher loads
  with ``importlib`` (``repro.__main__._SUBCOMMANDS``);
* every ``python -m repro...`` module CI runs;
* the ``examples/`` programs.

Tests are not roots: a module that only its own unit test imports is
dead code.  A module nothing reaches fails the test; give it a consumer
or delete it.  There is no allow-list.
"""

import ast
import os
import re

from repro.__main__ import _SUBCOMMANDS

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
SRC = os.path.join(ROOT, "src")
CI_WORKFLOW = os.path.join(ROOT, ".github", "workflows", "ci.yml")
EXAMPLES = os.path.join(ROOT, "examples")


def source_modules():
    """``{dotted name: path}`` for every module under ``src/repro``."""
    modules = {}
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "repro")):
        dirnames[:] = [name for name in dirnames if name != "__pycache__"]
        for filename in filenames:
            if filename.endswith(".py"):
                path = os.path.join(dirpath, filename)
                parts = os.path.relpath(path, SRC)[:-3].split(os.sep)
                if parts[-1] == "__init__":
                    parts.pop()
                modules[".".join(parts)] = path
    return modules


def imported_names(path, package=""):
    """Every name ``path`` imports, at any depth: ``from a import b``
    yields both ``a`` and ``a.b`` (``b`` may be a submodule).  Relative
    imports resolve against ``package``."""
    with open(path) as handle:
        tree = ast.parse(handle.read(), path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")[:len(package.split(".")) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            yield base
            for alias in node.names:
                yield "%s.%s" % (base, alias.name)


def entry_points(modules):
    """The roots: the dispatcher, its importlib subcommands, CI's
    ``python -m`` modules and the examples' imports."""
    roots = {"repro.__main__"}
    roots.update(module for _name, module, _description in _SUBCOMMANDS)
    with open(CI_WORKFLOW) as handle:
        for name in re.findall(r"python -m (repro[\w.]*)", handle.read()):
            main = name + ".__main__"
            roots.add(main if main in modules else name)
    for filename in sorted(os.listdir(EXAMPLES)):
        if filename.endswith(".py"):
            roots.update(imported_names(os.path.join(EXAMPLES, filename)))
    return roots


def reachable(modules, roots):
    """Modules transitively imported from ``roots``; importing ``a.b.c``
    also imports the packages ``a`` and ``a.b``."""
    seen = set()
    stack = list(roots)
    while stack:
        name = stack.pop()
        if name in seen or name not in modules:
            continue
        seen.add(name)
        parts = name.split(".")
        stack.extend(".".join(parts[:i]) for i in range(1, len(parts)))
        is_package = modules[name].endswith("__init__.py")
        package = name if is_package else name.rpartition(".")[0]
        stack.extend(imported_names(modules[name], package))
    return seen


def test_entry_points_are_found():
    modules = source_modules()
    roots = entry_points(modules)
    assert {"repro.__main__", "repro.harness.__main__",
            "repro.telemetry.validate", "repro.service.cli",
            "repro.gpu.locks"} <= roots


def test_every_module_is_reachable_from_an_entry_point():
    modules = source_modules()
    unreachable = sorted(set(modules) - reachable(modules, entry_points(modules)))
    assert not unreachable, (
        "modules no entry point imports (give each a consumer or delete "
        "it): %s" % ", ".join(unreachable))
