"""Shared driver for the scheduling, fault and multi-device tests."""

import json
import sqlite3

from repro.faults.sanitizer import StmSanitizer
from repro.harness import configs
from repro.harness.runner import run_workload
from repro.workloads import make_workload


def explore(workload, params, variant, policy="rr", *, gpu=None,
            gpu_overrides=None, num_locks=16, record=True, sanitize=False,
            **kwargs):
    """A capture-mode :func:`run_workload` of ``workload`` on the
    exploration geometry (``gpu`` or :func:`configs.explore_gpu`, with
    ``gpu_overrides``), recording its schedule; ``sanitize=True`` binds a
    fresh :class:`StmSanitizer`.  ``kwargs`` go to :func:`run_workload`."""
    return run_workload(
        make_workload(workload, **params),
        variant,
        configs.override_gpu(gpu or configs.explore_gpu(), gpu_overrides),
        policy,
        num_locks=num_locks,
        capture=True,
        record=record,
        sanitizer=StmSanitizer() if sanitize else None,
        **kwargs
    )


def stored_summary(db_path, run_id):
    """The summary blob the experiment DB at ``db_path`` holds for run
    ``run_id``, read straight from its ``runs`` table."""
    conn = sqlite3.connect(db_path)
    try:
        (text,) = conn.execute(
            "SELECT summary FROM runs WHERE id = ?", (run_id,)).fetchone()
    finally:
        conn.close()
    return json.loads(text)
