"""Sweep journal: fingerprints, durable records, torn-tail tolerance."""

import json

import pytest

from repro.harness import configs
from repro.harness.journal import JOURNAL_VERSION, SweepJournal, spec_fingerprint
from repro.harness.parallel import JobResult, JobSpec


def _spec(key="k", **kwargs):
    return JobSpec(key, "ra", configs.test_workload_params("ra"),
                   "hv-sorting", num_locks=64, **kwargs)


class TestFingerprint:
    def test_identical_specs_share_a_fingerprint(self):
        assert spec_fingerprint(_spec()) == spec_fingerprint(_spec())

    def test_any_field_change_invalidates(self):
        base = spec_fingerprint(_spec())
        assert spec_fingerprint(_spec(verify=False)) != base
        assert spec_fingerprint(_spec(gpu_overrides=dict(max_steps=9))) != base
        assert spec_fingerprint(
            _spec(fault_plan=["warp_stall:sm=0,warp=0,duration=5"])
        ) != base

    def test_clone_preserves_fingerprint(self):
        spec = _spec()
        assert spec_fingerprint(spec.clone()) == spec_fingerprint(spec)

    def test_figure_fingerprints_are_pinned(self):
        """Figure fingerprints key every journal, expdb run_key and
        reproduce manifest; these literals must never move."""
        from repro.harness import experiments

        params = experiments._params("ra", True)
        assert spec_fingerprint(JobSpec(("ra", "cgl"), "ra", params, "cgl")) \
            == "19895ef1915d2f83a15a5811e8a74a49b0dea4d2a17c298a5b219b80584ab86a"
        assert spec_fingerprint(JobSpec(
            ("ra", "optimized"), "ra", params, "optimized",
            stm_overrides={"egpgv_max_blocks": 4}, allow_crash=True,
            fault_plan=["cas_fail:count=1"],
        )) == "8e9bd46c2024b6426b40224c167d0a0f2237c060f92a59b5b28f849b16a3fc8c"

    def test_works_for_any_slots_object(self):
        class Slotted:
            __slots__ = ("a", "b")

            def __init__(self):
                self.a = 1
                self.b = "two"

        assert spec_fingerprint(Slotted()) == spec_fingerprint(Slotted())


class TestSweepJournal:
    def test_fresh_path_loads_empty(self, tmp_path):
        journal = SweepJournal(str(tmp_path / "none.journal"))
        assert journal.load() == {}

    def test_record_and_load_round_trip(self, tmp_path):
        path = str(tmp_path / "sweep.journal")
        spec = _spec()
        fp = spec_fingerprint(spec)
        result = JobResult(spec.key, run="payload")
        with SweepJournal(path) as journal:
            journal.record(fp, spec.key, result)
        loaded = SweepJournal(path).load()
        assert list(loaded) == [fp]
        assert loaded[fp].key == spec.key
        assert loaded[fp].run == "payload"

    def test_torn_final_line_is_skipped_not_fatal(self, tmp_path):
        path = str(tmp_path / "sweep.journal")
        fp = spec_fingerprint(_spec())
        with SweepJournal(path) as journal:
            journal.record(fp, "k", JobResult("k", run=1))
        # simulate a SIGKILL mid-append: a truncated JSON line at the tail
        with open(path, "a") as handle:
            handle.write('{"kind": "job", "fingerprint": "abc", "payl')
        journal = SweepJournal(path)
        loaded = journal.load()
        assert list(loaded) == [fp]
        assert journal.skipped_lines == 1

    def test_garbled_payload_reruns_that_job_only(self, tmp_path):
        path = str(tmp_path / "sweep.journal")
        with SweepJournal(path) as journal:
            journal.record("good", "k1", JobResult("k1", run=1))
        with open(path, "a") as handle:
            handle.write(json.dumps({
                "kind": "job", "fingerprint": "bad", "key": "'k2'",
                "payload": "not base64 pickle!!",
            }) + "\n")
        journal = SweepJournal(path)
        assert list(journal.load()) == ["good"]
        assert journal.skipped_lines == 1

    def test_version_mismatch_refuses_to_resume(self, tmp_path):
        path = str(tmp_path / "sweep.journal")
        with open(path, "w") as handle:
            handle.write(json.dumps(
                {"kind": "header", "version": JOURNAL_VERSION + 1}) + "\n")
        with pytest.raises(ValueError, match="version"):
            SweepJournal(path).load()

    def test_append_preserves_existing_records(self, tmp_path):
        path = str(tmp_path / "sweep.journal")
        with SweepJournal(path) as journal:
            journal.record("fp1", "k1", JobResult("k1", run=1))
        with SweepJournal(path) as journal:
            journal.record("fp2", "k2", JobResult("k2", run=2))
        loaded = SweepJournal(path).load()
        assert sorted(loaded) == ["fp1", "fp2"]
        header = json.loads(open(path).readline())
        assert header == {"kind": "header", "version": JOURNAL_VERSION}
