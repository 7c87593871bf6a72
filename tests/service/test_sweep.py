"""Sweep driver: determinism, supervision routing, journal-resume."""

from repro.harness.journal import SweepJournal
from repro.service.sweep import (
    ServiceJobSpec,
    build_specs,
    execute_service_job,
    run_service_sweep,
)

def quick_kwargs(**overrides):
    """Small shared sweep geometry; override per test as needed."""
    kwargs = dict(duration_cycles=15_000, num_accounts=128,
                  service_overrides={"num_locks": 64})
    kwargs.update(overrides)
    return kwargs


def test_build_specs_grid_is_deterministic():
    specs = build_specs(("cgl", "vbv"), (1.0, 2.0), (0.0, 0.9))
    keys = [spec.key for spec in specs]
    assert keys == [
        "cgl/poisson/load1/skew0",
        "cgl/poisson/load2/skew0",
        "cgl/poisson/load1/skew0.9",
        "cgl/poisson/load2/skew0.9",
        "vbv/poisson/load1/skew0",
        "vbv/poisson/load2/skew0",
        "vbv/poisson/load1/skew0.9",
        "vbv/poisson/load2/skew0.9",
    ]
    closed = build_specs(("cgl",), (1.0, 2.0), (0.8,), arrival="closed",
                         clients=4)
    assert [spec.key for spec in closed] == ["cgl/closed/clients4/skew0.8"]


def test_executor_returns_result_not_exception():
    bad = ServiceJobSpec("bad", "no-such-variant", 2.0,
                         **quick_kwargs())
    result = execute_service_job(bad)
    assert result.failed
    assert result.failure is not None
    assert "no-such-variant" in (result.error or "")


def test_sweep_summary_is_bit_identical():
    def run_once():
        return run_service_sweep(("cgl", "vbv"), (2.0,),
                                 **quick_kwargs()).summary

    first = run_once()
    assert [cell["variant"] for cell in first["cells"]] == ["cgl", "vbv"]
    assert all(not cell.get("failed") for cell in first["cells"])
    assert run_once() == first


def test_journal_resume_converges_after_partial_sweep(tmp_path):
    """A sweep killed mid-run (simulated: only its first cell journaled)
    resumes against the same journal and produces the summary a clean
    run produces."""
    journal_path = str(tmp_path / "svc.journal")
    reference = run_service_sweep(("cgl", "vbv"), (2.0,),
                                  **quick_kwargs()).summary

    # "killed" run: only the cgl cell completes and lands in the journal
    partial = run_service_sweep(("cgl",), (2.0,), journal=journal_path,
                                **quick_kwargs())
    assert partial.ok
    completed = SweepJournal(journal_path).load()
    assert len(completed) == 1

    # resumed run: cgl is served from the journal, vbv computed fresh
    resumed = run_service_sweep(("cgl", "vbv"), (2.0,), journal=journal_path,
                                **quick_kwargs())
    assert resumed.ok
    assert resumed.summary == reference


def test_supervised_sweep_matches_unsupervised():
    plain = run_service_sweep(("vbv",), (2.0,), **quick_kwargs()).summary
    supervised = run_service_sweep(("vbv",), (2.0,), retries=2,
                                   **quick_kwargs()).summary
    assert plain == supervised
