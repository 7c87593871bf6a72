"""Run provenance: the git identity a recorded run carries."""

import shutil
import subprocess

import pytest

from repro.expdb.provenance import git_info

pytestmark = pytest.mark.skipif(shutil.which("git") is None,
                                reason="git is not installed")


def _git(repo, *args):
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                    "-c", "commit.gpgsign=false", *args],
                   cwd=repo, check=True, capture_output=True)


def test_only_a_tracked_change_makes_the_tree_dirty(tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()
    _git(repo, "init", "-q")
    (repo / "tracked.txt").write_text("one\n")
    _git(repo, "add", "tracked.txt")
    _git(repo, "commit", "-q", "-m", "seed")
    clean = git_info(cwd=str(repo))
    assert len(clean["sha"]) == 40 and clean["dirty"] is False

    # a run's own artifacts are untracked: the tree stays clean
    (repo / "bundle").mkdir()
    (repo / "bundle" / "manifest.json").write_text("{}\n")
    assert git_info(cwd=str(repo)) == clean

    (repo / "tracked.txt").write_text("two\n")
    assert git_info(cwd=str(repo)) == {"sha": clean["sha"], "dirty": True}
