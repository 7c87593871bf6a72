"""Artifact ledger: the sweep CLIs must keep their deterministic artifacts
byte-identical.

Every CI sweep smoke writes a deterministic JSON (or text) artifact:
the reproduce bundle's ``manifest.json`` (which itself holds the SHA-256
of each rendered ``*.txt`` table), the ledger service's
``service_summary.json``, the multi-device ``survival_map.{json,txt}``,
the byzantine ``byz_matrix.json`` on one and on two devices, and the
3-mutant ``efficacy_matrix.json``.  This test regenerates each one with
CI's exact arguments and compares its SHA-256 against
``tests/goldens/artifacts.json``, so a refactor that claims "nothing
changed" is checked by the suite instead of by hand against a copy of
its parent.

If an intentional behaviour change moves an artifact, regenerate the
ledger and say so in the change description::

    PYTHONPATH=src python tests/test_artifact_goldens.py --update
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
LEDGER = os.path.join(HERE, "goldens", "artifacts.json")
SRC = os.path.join(os.path.dirname(HERE), "src")

#: (run name, CLI argv after ``python -m``, artifacts it must write); the
#: argv mirrors the matching CI job (`expdb-smoke`, `sweep-smoke`,
#: `sanitizer-smoke`), with ``{out}`` the run's output directory
RUNS = (
    ("reproduce",
     ["repro", "reproduce", "--smoke", "--jobs", "2", "--out", "{out}",
      "--db", "{out}/experiments.sqlite"],
     ["manifest.json"]),
    ("service",
     ["repro", "service", "--variants", "cgl,vbv", "--load", "2",
      "--duration-cycles", "50000", "--seed", "7", "--retries", "2",
      "--metrics", "--timeline", "--resume", "{out}/sweep.journal",
      "--out", "{out}"],
     ["service_summary.json"]),
    ("multigpu",
     ["repro", "multigpu", "--variants", "cgl,vbv", "--remote-frac", "0,0.5",
      "--link-latency", "40,160", "--retries", "2", "--metrics",
      "--resume", "{out}/sweep.journal",
      "--expdb", "{out}/experiments.sqlite", "--out", "{out}"],
     ["survival_map.json", "survival_map.txt"]),
    ("byz",
     ["repro", "byz", "--behaviors", "lie_validation,lock_hoard",
      "--variants", "cgl,hv-sorting", "--retries", "2", "--metrics",
      "--resume", "{out}/byz.journal",
      "--expdb", "{out}/experiments.sqlite", "--out", "{out}"],
     ["byz_matrix.json"]),
    ("byz-2dev",
     ["repro", "byz", "--behaviors", "lie_validation,lock_hoard",
      "--variants", "cgl,hv-sorting", "--devices", "2", "--byz-device", "0",
      "--retries", "2", "--metrics", "--out", "{out}"],
     ["byz_matrix.json"]),
    ("inject",
     ["repro.harness", "inject", "--mutants",
      "missing-writeback-fence,egpgv-release-before-writeback,clock-stuck",
      "--checkers", "oracle,sanitizer", "--jobs", "2", "--out", "{out}"],
     ["efficacy_matrix.json"]),
)


#: the ledger's keys: ``run/artifact``
ARTIFACTS = sorted("%s/%s" % (name, artifact)
                   for name, _argv, artifacts in RUNS for artifact in artifacts)


def _sha256(path):
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def regenerate(root):
    """Run every CLI under ``root``; returns ``{"run/artifact": sha256}``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    hashes = {}
    for name, argv, artifacts in RUNS:
        out = os.path.join(root, name)
        os.makedirs(out, exist_ok=True)
        cmd = [sys.executable, "-m"] + [arg.format(out=out) for arg in argv]
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                              text=True)
        if proc.returncode != 0:
            raise AssertionError("%s exited %d:\n%s%s" % (
                " ".join(cmd), proc.returncode, proc.stdout, proc.stderr))
        for artifact in artifacts:
            hashes["%s/%s" % (name, artifact)] = _sha256(
                os.path.join(out, artifact))
    return hashes


def _load_ledger():
    with open(LEDGER) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def regenerated(tmp_path_factory):
    return regenerate(str(tmp_path_factory.mktemp("artifacts")))


def test_ledger_covers_every_artifact():
    assert sorted(_load_ledger()) == ARTIFACTS


@pytest.mark.parametrize("artifact", ARTIFACTS)
def test_artifact_hash(regenerated, artifact):
    assert regenerated[artifact] == _load_ledger()[artifact], (
        "%s changed; if intended, regenerate the ledger with "
        "`PYTHONPATH=src python tests/test_artifact_goldens.py --update`"
        % artifact)


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: python tests/test_artifact_goldens.py --update")
    with tempfile.TemporaryDirectory() as scratch:
        ledger = regenerate(scratch)
    os.makedirs(os.path.dirname(LEDGER), exist_ok=True)
    with open(LEDGER, "w") as handle:
        json.dump(ledger, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("wrote %d hashes to %s" % (len(ledger), LEDGER))
