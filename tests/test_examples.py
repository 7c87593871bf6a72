"""Every example program must run to completion and hold its invariants."""

import importlib.util
import os
import sys

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "examples")


def load_example(name):
    path = os.path.join(EXAMPLES_DIR, name + ".py")
    spec = importlib.util.spec_from_file_location("example_" + name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestExamples:
    def test_quickstart(self, capsys):
        load_example("quickstart").main()
        out = capsys.readouterr().out
        assert "atomicity invariant holds" in out

    def test_lock_pitfalls(self, capsys):
        load_example("lock_pitfalls").main()
        out = capsys.readouterr().out
        assert "DEADLOCK" in out
        assert "correct with one lock, counter=8" in out
        assert "LIVELOCK" in out
        assert "commits" in out

    def test_maze_router(self, capsys):
        load_example("maze_router").main()
        out = capsys.readouterr().out
        assert "verified" in out
        assert "routed" in out

    @pytest.mark.slow
    def test_bank_transfers(self, capsys):
        load_example("bank_transfers").main()
        out = capsys.readouterr().out
        assert "total balance conserved" in out
        assert "vs CGL" in out

    def test_histogram(self, capsys):
        load_example("histogram").main()
        out = capsys.readouterr().out
        assert "verified exact" in out
        assert "faster" in out
