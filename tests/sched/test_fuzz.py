"""The interleaving fuzzer: ddmin, efficacy against a broken runtime."""

import json
import os

import pytest

from repro.harness import configs
from repro.sched.fuzz import (
    FuzzJobSpec,
    ddmin,
    execute_fuzz_job,
    fuzz_schedules,
    policy_specs,
    unflatten_decisions,
)
from repro.stm import make_runtime
from repro.stm.runtime.locksorting import LockSortingTx
from tests.stm.helpers import ALL_VARIANTS

RA_PARAMS = configs.test_workload_params("ra")


class NoRevalidateTx(LockSortingTx):
    """Deliberately broken: skips read-set revalidation entirely.

    Reads never notice concurrent committers and timestamp validation is
    forced to pass, so stale snapshots reach commit — a schedule-dependent
    serializability bug only specific interleavings expose.
    """

    def _post_validation(self, version):
        self.snapshot = version
        return True
        yield  # generator protocol; unreachable

    def _get_locks_and_tbv(self):
        ok = yield from super()._get_locks_and_tbv()
        if ok:
            self.pass_tbv = True
        return ok


def broken_runtime_factory(variant, device, stm_config):
    """Module-level (hence picklable) factory injecting the broken tx."""
    runtime = make_runtime(variant, device, stm_config)
    runtime.make_thread = lambda tc: NoRevalidateTx(runtime, tc)
    return runtime


class TestDdmin:
    def test_minimizes_to_the_failure_kernel(self):
        culprits = {3, 7}
        fails = lambda c: culprits <= set(c)
        assert sorted(ddmin(list(range(10)), fails)) == [3, 7]

    def test_single_culprit(self):
        assert ddmin(list(range(16)), lambda c: 11 in c) == [11]

    def test_result_never_larger_than_input(self):
        calls = [0]

        def budgeted(candidate):
            calls[0] += 1
            return calls[0] <= 3 and sum(candidate) >= 10

        items = [5, 5, 5, 5]
        result = ddmin(items, budgeted)
        assert len(result) <= len(items)
        assert set(result) <= set(items)

    def test_empty_input(self):
        assert ddmin([], lambda c: True) == []

    def test_not_failing_input_returned_unchanged(self):
        assert ddmin([1, 2, 3], lambda c: False) == [1, 2, 3]


class TestHelpers:
    def test_policy_specs_expand_seeded_templates(self):
        expanded = policy_specs(("random", "adversarial", "rr", "random:7"), [0, 1])
        assert expanded == [
            (0, "random:0"),
            (1, "random:1"),
            (0, "adversarial:0"),
            (1, "adversarial:1"),
            (None, "rr"),
            (None, "random:7"),
        ]

    def test_unflatten_decisions(self):
        flat = [(0, 0, 1, 2), (1, 1, 0, 3), (0, 0, 2, 1)]
        assert unflatten_decisions(flat, 2) == [
            [[0, 1, 2], [0, 2, 1]],
            [[1, 0, 3]],
        ]

    def test_job_spec_pickles(self):
        import pickle

        spec = FuzzJobSpec(
            3, "random:3", "ra", RA_PARAMS, "hv-sorting",
            runtime_factory=broken_runtime_factory,
        )
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.policy == "random:3"
        assert clone.runtime_factory is broken_runtime_factory

    def test_execute_fuzz_job_captures_errors(self):
        spec = FuzzJobSpec(0, "random:0", "ra", {"bogus": 1}, "hv-sorting")
        outcome = execute_fuzz_job(spec)
        assert outcome.failure == "error"
        assert "bogus" in outcome.detail


class TestFuzzSmoke:
    """Seeded fuzz smoke over every STM variant: all clean."""

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_variant_survives_seeded_schedules(self, variant):
        report = fuzz_schedules(
            "ra", RA_PARAMS, variant, seeds=[0],
            policies=("random", "adversarial"), shrink=False,
        )
        assert not report.found_violation, report.render()
        assert len(report.outcomes) == 2
        for outcome in report.outcomes:
            assert outcome.checked > 0, "oracle must check every history"
            assert outcome.commits > 0
            assert outcome.ledger_rows, "fuzz runs carry a TxTracer ledger"
            assert "commits" in outcome.ledger_summary

    def test_cgl_commit_order_witness(self):
        """``random:21`` lets another warp take CGL's lock and commit in
        the step between a release and its commit record; the history
        must still order the sections as the lock did."""
        report = fuzz_schedules(
            "ra", RA_PARAMS, "cgl", seeds=[21], policies=("random",),
            shrink=False,
        )
        (outcome,) = report.outcomes
        assert not report.found_violation, report.render()
        assert outcome.checked == outcome.commits > 0


class TestFuzzEfficacy:
    """The fuzzer must catch a deliberately broken runtime and shrink it."""

    def run_broken(self, tmp_path, **kwargs):
        return fuzz_schedules(
            "ra", RA_PARAMS, "hv-sorting",
            seeds=2,
            policies=("random",),
            runtime_factory=broken_runtime_factory,
            artifact_dir=str(tmp_path),
            **kwargs,
        )

    def test_broken_runtime_caught_and_shrunk(self, tmp_path):
        report = self.run_broken(tmp_path, shrink_budget=80)
        assert report.found_violation, "bounded seed budget must expose the bug"
        for failure in report.failures:
            assert failure.outcome.failure == "serializability"
            original = len(failure.outcome.decisions())
            assert failure.shrunk_decisions is not None
            assert len(failure.shrunk_decisions) <= original
            assert failure.shrink_evals <= 80
            # the minimal prescription must itself still fail
            assert failure.shrunk_outcome is not None
            assert not failure.shrunk_outcome.ok

    def test_artifacts_written_and_replayable(self, tmp_path):
        report = self.run_broken(tmp_path, shrink=False)
        failure = report.failures[0]
        names = {os.path.basename(p).split(".", 1)[1] for p in failure.artifacts}
        assert names == {"schedule.json", "ledger.csv"}
        schedule_path = [p for p in failure.artifacts if p.endswith("schedule.json")][0]
        with open(schedule_path) as handle:
            payload = json.load(handle)
        assert payload["failure"] == "serializability"
        assert payload["traces"], "artifact must carry the recorded schedule"
        ledger_path = [p for p in failure.artifacts if p.endswith("ledger.csv")][0]
        with open(ledger_path) as handle:
            lines = handle.read().strip().splitlines()
        assert lines[0].startswith("sequence,")
        assert len(lines) > 1

    def test_shrunk_artifact_carries_the_prescription(self, tmp_path):
        report = self.run_broken(tmp_path, shrink_budget=80)
        failure = report.failures[0]
        shrunk_path = [p for p in failure.artifacts if p.endswith("shrunk.json")][0]
        with open(shrunk_path) as handle:
            payload = json.load(handle)
        flattened = sum(len(d) for d in payload["decisions_per_launch"])
        assert flattened == len(failure.shrunk_decisions)
        assert payload["failure"] == "serializability"

    def test_infrastructure_errors_surface_loudly(self):
        with pytest.raises(RuntimeError, match="outside the oracle"):
            fuzz_schedules(
                "ra", {"bogus": 1}, "hv-sorting", seeds=1, policies=("random",)
            )

    def test_report_render_mentions_the_shrink(self, tmp_path):
        report = self.run_broken(tmp_path, shrink_budget=80)
        rendered = report.render()
        assert "failing" in rendered
        assert "shrunk to" in rendered
        assert "artifact:" in rendered
