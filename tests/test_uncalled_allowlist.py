"""The product-traffic allowlist names only code that exists.

``scripts/uncalled_allow.txt`` lists the functions under ``src/repro``
that no product command enters but the repo keeps, one
``path:Qualname  reason`` line each.  The audit that reads it profiles
every CI command and runs on demand; this check is static (AST only), so
deleting or renaming a listed function fails tier-1 until its entry goes
too.
"""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ALLOWLIST = os.path.join(ROOT, "scripts", "uncalled_allow.txt")
REASON_CLASSES = ("safety:", "reference:", "combination:", "item-23:",
                  "fuzz-failure:")


def _uncalled():
    spec = importlib.util.spec_from_file_location(
        "uncalled", os.path.join(ROOT, "scripts", "uncalled.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_entry_names_an_existing_def():
    uncalled = _uncalled()
    allowed = uncalled.read_allowlist(ALLOWLIST)
    assert allowed
    defs = {}
    stale = []
    for path, qualname in sorted(allowed):
        if path not in defs:
            full = os.path.join(ROOT, path)
            assert path.startswith("src/repro/") and os.path.isfile(full), path
            defs[path] = {name for _first, name, _lines, _kind
                          in uncalled.scan(full, [])}
        if qualname not in defs[path]:
            stale.append("%s:%s" % (path, qualname))
    assert stale == []


def test_every_entry_gives_one_reason_class():
    allowed = _uncalled().read_allowlist(ALLOWLIST)
    unclassed = ["%s:%s" % key for key, reason in sorted(allowed.items())
                 if not reason.startswith(REASON_CLASSES)
                 or not reason.partition(":")[2].strip()]
    assert unclassed == []


def test_entries_are_unique():
    with open(ALLOWLIST) as handle:
        entries = [line.split("  ", 1)[0] for line in handle
                   if line.strip() and not line.startswith("#")]
    assert len(entries) == len(set(entries))
