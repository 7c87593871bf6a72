"""Chaos harness pieces: report plumbing plus a scaled-down
kill-and-resume round trip (the full three-phase harness runs as the CI
``chaos-smoke`` job via ``python -m repro.harness chaos``)."""

import multiprocessing
import signal

import pytest

from repro.harness import chaos, configs
from repro.harness.journal import SweepJournal
from repro.harness.parallel import JobSpec, run_jobs
from repro.telemetry import MetricRegistry


def _specs():
    return [
        JobSpec(("ra", variant), "ra", configs.test_workload_params("ra"),
                variant, num_locks=64)
        for variant in ("cgl", "hv-sorting", "optimized")
    ]


def _killed_child(journal_path):
    run_jobs(_specs(), jobs=1, journal=journal_path,
             executor=chaos._KillAfter(1))


class TestChaosReport:
    def test_ok_requires_every_phase(self):
        report = chaos.ChaosReport()
        report.add("one", True, "fine")
        assert report.ok
        report.add("two", False, "broke")
        assert not report.ok
        rendered = report.render()
        assert "[ok] one" in rendered
        assert "[FAIL] two" in rendered
        assert "chaos ok: NO" in rendered

    def test_as_dict_round_trips_phases(self):
        report = chaos.ChaosReport()
        report.add("one", True, "fine")
        data = report.as_dict()
        assert data["ok"] is True
        assert data["phases"] == [{"name": "one", "ok": True, "detail": "fine"}]

    def test_reference_specs_cover_three_runtime_families(self):
        specs = chaos.chaos_specs()
        assert len(specs) == len(chaos.CASES)
        assert all(spec.telemetry for spec in specs)
        assert {spec.variant for spec in specs} == {
            "cgl", "hv-sorting", "optimized"}


@pytest.mark.slow
class TestKillAndResume:
    def test_sigkilled_sweep_resumes_bit_identically(self, tmp_path):
        path = str(tmp_path / "chaos.journal")
        reference = run_jobs(_specs(), jobs=1)
        assert not any(r.failed for r in reference)

        child = multiprocessing.get_context().Process(
            target=_killed_child, args=(path,))
        child.start()
        child.join()
        assert child.exitcode == -signal.SIGKILL

        # exactly one job committed to the journal before the kill
        assert len(SweepJournal(path).load()) == 1

        registry = MetricRegistry()
        resumed = run_jobs(_specs(), jobs=1, journal=path, metrics=registry)
        counters = registry.as_dict()["counters"]
        assert counters["supervisor.jobs.resumed"] == 1
        assert counters["supervisor.jobs.executed"] == 2
        assert [r.key for r in resumed] == [r.key for r in reference]
        assert [r.run.cycles for r in resumed] == [
            r.run.cycles for r in reference]
        assert [r.run.commits for r in resumed] == [
            r.run.commits for r in reference]
        assert [r.run.stats for r in resumed] == [
            r.run.stats for r in reference]
