"""Sweep journal: fingerprints, durable records, torn-tail tolerance."""

import json
import os
import tempfile
from contextlib import closing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness import configs
from repro.harness.journal import (
    HEADER_LINE,
    JOURNAL_VERSION,
    JournalError,
    SweepJournal,
    spec_fingerprint,
)
from repro.harness.parallel import JobResult, JobSpec, run_jobs


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
        with closing(SweepJournal(path)) as journal:
            journal.record(fp, spec.key, result)
        loaded = SweepJournal(path).load()
        assert list(loaded) == [fp]
        assert loaded[fp].key == spec.key
        assert loaded[fp].run == "payload"

    def test_torn_final_line_is_skipped_not_fatal(self, tmp_path):
        path = str(tmp_path / "sweep.journal")
        fp = spec_fingerprint(_spec())
        with closing(SweepJournal(path)) as journal:
            journal.record(fp, "k", JobResult("k", run=1))
        # simulate a SIGKILL mid-append: a truncated JSON line at the tail
        with open(path, "a") as handle:
            handle.write('{"kind": "job", "fingerprint": "abc", "payl')
        journal = SweepJournal(path)
        loaded = journal.load()
        assert list(loaded) == [fp]
        assert journal.skipped_lines == 1
        # the resumed sweep's first record must not land on the torn line
        with closing(journal):
            journal.record("fp2", "k2", JobResult("k2", run=2))
        journal = SweepJournal(path)
        assert list(journal.load()) == [fp, "fp2"]
        assert journal.skipped_lines == 1

    def test_header_torn_mid_write_is_a_fresh_journal(self, tmp_path):
        path = tmp_path / "sweep.journal"
        path.write_text(HEADER_LINE[:9])
        assert SweepJournal(str(path)).load() == {}
        with closing(SweepJournal(str(path))) as journal:
            journal.record("fp", "k", JobResult("k", run=1))
        assert path.read_text().startswith(HEADER_LINE)
        assert list(SweepJournal(str(path)).load()) == ["fp"]

    @pytest.mark.parametrize("text", [
        "meeting notes\n", "notes without a newline",
        json.dumps({"kind": "job", "fingerprint": "x"}) + "\n",
    ])
    def test_a_file_that_is_not_a_journal_is_refused_untouched(
            self, tmp_path, text):
        path = tmp_path / "notes.txt"
        path.write_text(text)
        with pytest.raises(JournalError, match="notes.txt is not a sweep "
                           "journal"):
            SweepJournal(str(path)).load()
        with pytest.raises(JournalError):
            SweepJournal(str(path)).record("fp", "k", JobResult("k", run=1))
        assert path.read_text() == text

    def test_garbled_payload_reruns_that_job_only(self, tmp_path):
        path = str(tmp_path / "sweep.journal")
        with closing(SweepJournal(path)) as journal:
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
        with pytest.raises(JournalError, match="version"):
            SweepJournal(path).load()

    def test_append_preserves_existing_records(self, tmp_path):
        path = str(tmp_path / "sweep.journal")
        with closing(SweepJournal(path)) as journal:
            journal.record("fp1", "k1", JobResult("k1", run=1))
        with closing(SweepJournal(path)) as journal:
            journal.record("fp2", "k2", JobResult("k2", run=2))
        loaded = SweepJournal(path).load()
        assert sorted(loaded) == ["fp1", "fp2"]
        header = json.loads(open(path).readline())
        assert header == {"kind": "header", "version": JOURNAL_VERSION}


#: one line of arbitrary text: no line break (file iteration splits on
#: ``\n`` and ``\r``) and no lone surrogate (not encodable)
_LINE = st.text(st.characters(blacklist_categories=("Cs",),
                              blacklist_characters="\r\n"))


def _key_run(spec):
    """Module-level executor: no simulation, the run is the cell's key."""
    return JobResult(spec.key, run=spec.key)


class TestJournalLines:
    """Whatever a crash, a disk or a hand edit leaves in a journal's
    lines, ``load`` degrades to re-running cells; it never fails a
    resume."""

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_LINE, max_size=6))
    def test_bad_lines_after_a_record_are_counted_and_skipped(self, lines):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "sweep.journal")
            with closing(SweepJournal(path)) as journal:
                journal.record("fp", "k", JobResult("k", run=1))
            with open(path, "a", encoding="utf-8") as handle:
                handle.write("".join(line + "\n" for line in lines))
            journal = SweepJournal(path)
            loaded = journal.load()
        assert list(loaded) == ["fp"] and loaded["fp"].run == 1
        assert journal.skipped_lines == sum(1 for line in lines
                                            if line.strip())

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.one_of(st.none(), _LINE), min_size=1, max_size=6))
    def test_resume_reruns_exactly_the_lost_cells(self, damage):
        # cell i's record survives when damage[i] is None, else its line
        # is replaced by that text
        specs = [_spec(key=index) for index in range(len(damage))]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "sweep.journal")
            first = run_jobs(specs, jobs=1, executor=_key_run, journal=path)
            with open(path, encoding="utf-8") as handle:
                header, *records = handle.readlines()
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(header + "".join(
                    record if text is None else text + "\n"
                    for record, text in zip(records, damage)))
            ran = []

            def counting(spec):
                ran.append(spec.key)
                return _key_run(spec)

            resumed = run_jobs(specs, jobs=1, executor=counting, journal=path)
        assert ran == [index for index, text in enumerate(damage)
                       if text is not None]
        assert [r.run for r in resumed] == [r.run for r in first]

    @settings(max_examples=200, deadline=None)
    @given(st.binary(), st.booleans())
    def test_any_first_line_is_fresh_refused_or_loaded(self, first, ended):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "sweep.journal")
            with open(path, "wb") as handle:
                handle.write(first + (b"\n" if ended else b""))
            try:
                loaded = SweepJournal(path).load()
            except JournalError:
                return
        assert isinstance(loaded, dict)
