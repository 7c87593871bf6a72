"""The interleaving fuzzer: ddmin, efficacy against a broken runtime."""

import json
import os
import pickle

import pytest

from repro.harness import configs
from repro.harness.journal import spec_fingerprint
from repro.sched import fuzz
from repro.sched.fuzz import (
    ExploreCell,
    ddmin,
    execute_explore,
    fuzz_schedules,
    policy_specs,
    unflatten_decisions,
)
from repro.telemetry import MetricRegistry
from repro.telemetry.validate import validate_file
from tests.stm.helpers import ALL_VARIANTS

RA_PARAMS = configs.test_workload_params("ra")

#: skips read-set revalidation (post-validation) and forces the
#: commit-time TBV verdict to pass: stale snapshots reach commit, a
#: schedule-dependent serializability bug only some interleavings expose
BROKEN = "skip-revalidation"


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
            "random:0",
            "random:1",
            "adversarial:0",
            "adversarial:1",
            "rr",
            "random:7",
        ]

    def test_unflatten_decisions(self):
        flat = [(0, 0, 1, 2), (1, 1, 0, 3), (0, 0, 2, 1)]
        assert unflatten_decisions(flat, 2) == [
            [[0, 1, 2], [0, 2, 1]],
            [[1, 0, 3]],
        ]

    def test_job_spec_pickles(self):
        spec = ExploreCell("ra", RA_PARAMS, "hv-sorting", "random:3",
                           mutant=BROKEN)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.policy == "random:3"
        assert clone.mutant == BROKEN
        assert clone.key == "ra/hv-sorting/random:3"
        assert spec_fingerprint(clone) == spec_fingerprint(spec)

    def test_execute_fuzz_job_captures_errors(self):
        spec = ExploreCell("ra", {"bogus": 1}, "hv-sorting", "random:0")
        result = execute_explore(spec)
        assert result.failed
        assert "bogus" in result.error
        assert result.failure.key == "ra/hv-sorting/random:0"


def _outcomes(report):
    return [result.run for result in report.results]


class TestFuzzSmoke:
    """Seeded fuzz smoke over every STM variant: all clean."""

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_variant_survives_seeded_schedules(self, variant):
        report = fuzz_schedules(
            "ra", RA_PARAMS, [variant], seeds=[0],
            policies=("random", "adversarial"), shrink_budget=0,
        )
        assert report.ok, report.render()
        assert len(report.results) == 2
        for outcome in _outcomes(report):
            assert outcome.checked > 0, "oracle must check every history"
            assert outcome.commits > 0
            # a passing cell ships no schedule and no ledger
            assert outcome.traces == []
            assert not hasattr(outcome, "ledger_rows")

    def test_cgl_commit_order_witness(self):
        """``random:21`` lets another warp take CGL's lock and commit in
        the step between a release and its commit record; the history
        must still order the sections as the lock did."""
        report = fuzz_schedules(
            "ra", RA_PARAMS, ["cgl"], seeds=[21], policies=("random",),
            shrink_budget=0,
        )
        (outcome,) = _outcomes(report)
        assert report.ok, report.render()
        assert outcome.checked == outcome.commits > 0

    def test_variants_share_one_grid(self):
        """Every variant's cells run as one sweep, in variant order."""
        report = fuzz_schedules(
            "ra", RA_PARAMS, ["cgl", "vbv"], seeds=[0], policies=("random",),
            shrink_budget=0,
        )
        assert [spec.key for spec in report.specs] == [
            "ra/cgl/random:0", "ra/vbv/random:0"]
        assert list(report.summary["variants"]) == ["cgl", "vbv"]
        assert report.render().splitlines()[::3] == [
            "fuzz ra/cgl: 1 schedules, 0 failing",
            "fuzz ra/vbv: 1 schedules, 0 failing",
        ]


class TestFuzzEfficacy:
    """The fuzzer must catch a deliberately broken runtime and shrink it."""

    def run_broken(self, tmp_path, **kwargs):
        return fuzz_schedules(
            "ra", RA_PARAMS, ["hv-sorting"],
            seeds=2,
            policies=("random",),
            mutant=BROKEN,
            artifact_dir=str(tmp_path),
            **kwargs,
        )

    @staticmethod
    def failures(report):
        return report.summary["variants"]["hv-sorting"]["failures"]

    def test_broken_runtime_caught_and_shrunk(self, tmp_path):
        report = self.run_broken(tmp_path, shrink_budget=80)
        assert not report.ok, "bounded seed budget must expose the bug"
        failures = self.failures(report)
        assert [f["policy"] for f in failures] == ["random:0:4", "random:1:4"]
        for failure in failures:
            assert failure["failure"] == "serializability"
            # the minimal prescription must itself still fail, and both
            # seeds shrink to one decision within the budget
            assert failure["shrunk"] == {"decisions": 1, "replays": 11,
                                         "failure": "serializability"}
            assert failure["decisions"] > 1000

    def test_artifacts_written_and_replayable(self, tmp_path):
        report = self.run_broken(tmp_path, shrink_budget=0)
        failure = self.failures(report)[0]
        names = {name.split(".", 1)[1] for name in failure["artifacts"]}
        assert names == {"schedule.json", "timeline.json"}
        assert failure["reproduced"] is True
        with open(tmp_path / failure["artifacts"][0]) as handle:
            payload = json.load(handle)
        assert payload["failure"] == "serializability"
        assert payload["traces"], "artifact must carry the recorded schedule"
        flattened = sum(len(trace["decisions"]) for trace in payload["traces"])
        assert flattened == failure["decisions"]

    def test_failing_schedule_explains_itself_on_the_timeline(self, tmp_path):
        """The failing schedule's timeline is a valid Chrome trace with
        one ``tx`` slice per attempt of the failing run, every abort
        carrying its reason."""
        report = self.run_broken(tmp_path, shrink_budget=0)
        failure = self.failures(report)[0]
        outcome = report.results[0].run
        assert outcome.policy == failure["policy"] and not outcome.ok
        (timeline,) = [name for name in failure["artifacts"]
                       if name.endswith(".timeline.json")]
        path = str(tmp_path / timeline)
        assert "valid Chrome trace" in validate_file(path)
        with open(path) as handle:
            events = json.load(handle)["traceEvents"]
        slices = [e for e in events if e.get("cat") == "tx"]
        assert len(slices) == outcome.commits + outcome.aborts
        aborts = [e for e in slices if e["args"]["outcome"] == "abort"]
        assert len(aborts) == outcome.aborts > 0
        assert all(e["args"]["reason"] for e in aborts)

    def test_unreproduced_failure_is_reported_not_shrunk(self, tmp_path,
                                                         monkeypatch):
        """A recorded re-run that does not reproduce the cell's failure
        is named in the entry and the render; nothing is shrunk or
        written, and the sweep still fails."""
        explore = fuzz._explore

        def drifting(spec, telemetry=None, record=False):
            run = explore(spec, telemetry, record)
            if record:
                run.detail = "another failure"
            return run

        monkeypatch.setattr(fuzz, "_explore", drifting)
        report = fuzz_schedules(
            "ra", RA_PARAMS, ["hv-sorting"], seeds=[0], policies=("random",),
            mutant=BROKEN, artifact_dir=str(tmp_path))
        (failure,) = self.failures(report)
        assert failure["reproduced"] is False
        assert (failure["shrunk"], failure["artifacts"]) == (None, [])
        assert os.listdir(str(tmp_path)) == []
        assert not report.ok
        assert "  NOT reproduced by the recorded re-run" in report.render()

    def test_shrunk_artifact_carries_the_prescription(self, tmp_path):
        report = self.run_broken(tmp_path, shrink_budget=80)
        failure = self.failures(report)[0]
        assert failure["artifacts"][1].endswith("shrunk.json")
        with open(tmp_path / failure["artifacts"][1]) as handle:
            payload = json.load(handle)
        flattened = sum(len(d) for d in payload["decisions_per_launch"])
        assert flattened == failure["shrunk"]["decisions"]
        assert payload["failure"] == "serializability"

    def test_infrastructure_errors_surface_loudly(self):
        """An errored cell is never a pass: it fails the sweep and joins
        the failure roster."""
        report = fuzz_schedules(
            "ra", {"bogus": 1}, ["hv-sorting"], seeds=1, policies=("random",)
        )
        assert not report.ok
        (failure,) = report.failures
        assert failure.key == "ra/hv-sorting/random:0"
        assert "bogus" in failure.message
        (error,) = report.summary["variants"]["hv-sorting"]["errors"]
        assert error["key"] == failure.key
        assert "errored outside the oracle" in report.render()
        assert "strictly serializable" not in report.render()

    def test_report_render_mentions_the_shrink(self, tmp_path):
        report = self.run_broken(tmp_path, shrink_budget=80)
        lines = report.render().splitlines()
        assert lines[:8] == [
            "fuzz ra/hv-sorting: 2 schedules, 2 failing",
            "policy=random:0:4 failure=serializability",
            "  tx tid=22 version=4 read addr=71 value=1000 but the "
            "serialized state holds 999",
            "  schedule: 1294 decisions",
            "  shrunk to 1 decisions in 11 replays",
            "  artifact: %s" % os.path.join(
                str(tmp_path), "fuzz_ra_hv-sorting_random-0-4.schedule.json"),
            "  artifact: %s" % os.path.join(
                str(tmp_path), "fuzz_ra_hv-sorting_random-0-4.shrunk.json"),
            "  artifact: %s" % os.path.join(
                str(tmp_path), "fuzz_ra_hv-sorting_random-0-4.timeline.json"),
        ]

    def test_resumed_sweep_replays_every_cell_and_the_summary(self, tmp_path):
        """A journal resume executes no cell; the reduce still shrinks
        and rewrites the same summary and artifacts."""
        journal = str(tmp_path / "fuzz.journal")
        summaries = []
        for _ in range(2):
            registry = MetricRegistry()
            report = self.run_broken(tmp_path, shrink_budget=80,
                                     journal=journal, metrics=registry)
            summaries.append(json.dumps(report.summary, sort_keys=True))
        counters = registry.as_dict()["counters"]
        assert counters.get("supervisor.jobs.executed", 0) == 0
        assert counters["supervisor.jobs.resumed"] == 2
        assert summaries[0] == summaries[1]
