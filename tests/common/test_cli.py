"""``python -m repro...`` entry points when stdout's reader has gone."""

import os
import subprocess
import sys
import textwrap

import pytest

#: runs one entry point with a stdout whose every write and flush raises
#: BrokenPipeError, as a closed pipe (``... | head``) makes them
_GONE_READER = textwrap.dedent("""
    import io, runpy, sys

    class Gone(io.TextIOBase):
        def writable(self):
            return True

        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            raise BrokenPipeError(32, "Broken pipe")

    sys.stdout = Gone()
    sys.argv = [sys.argv[1]] + sys.argv[2:]
    runpy.run_module(sys.argv[0], run_name="__main__", alter_sys=True)
""")


@pytest.mark.parametrize("argv", [
    ["repro", "--help"],
    ["repro.harness", "--help"],
    ["repro", "db", "--help"],
    ["repro.expdb.cli", "--help"],
], ids=lambda argv: " ".join(argv[:-1]))
def test_closed_stdout_exits_without_a_traceback(argv):
    src = os.path.abspath(
        os.path.join(os.path.dirname(__file__), "..", "..", "src"))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _GONE_READER] + argv,
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.stderr == ""
    assert proc.returncode == 1
