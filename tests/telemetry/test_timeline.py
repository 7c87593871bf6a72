"""TimelineRecorder / _ThreadTrack: slice coalescing, abort collapse,
Chrome-trace schema, the record store and the streaming writer."""

import gc
import json
import tracemalloc

import pytest

from repro.gpu.events import Phase
from repro.harness import configs
from repro.harness.runner import run_workload
from repro.telemetry import Telemetry, timeline
from repro.telemetry.timeline import THREAD_TRACK_OFFSET, TimelineRecorder
from repro.telemetry.validate import validate_chrome_trace
from repro.workloads import make_workload


def phase_events(recorder):
    return [e for e in recorder.events() if e.get("cat") == "phase"]


class TestCoalescing:
    def test_contiguous_same_phase_merges(self):
        recorder = TimelineRecorder()
        recorder.begin_launch("k", 1)
        track = recorder.track(0)
        track.charge(Phase.NATIVE, 0, 4)
        track.charge(Phase.NATIVE, 4, 2)
        events = phase_events(recorder)
        assert len(events) == 1
        assert events[0]["ts"] == 0 and events[0]["dur"] == 6

    def test_phase_change_splits(self):
        recorder = TimelineRecorder()
        recorder.begin_launch("k", 1)
        track = recorder.track(0)
        track.charge(Phase.NATIVE, 0, 4)
        track.charge(Phase.LOCKS, 4, 2)
        assert [e["name"] for e in phase_events(recorder)] == [
            Phase.NATIVE, Phase.LOCKS,
        ]

    def test_time_gap_splits(self):
        recorder = TimelineRecorder()
        recorder.begin_launch("k", 1)
        track = recorder.track(0)
        track.charge(Phase.NATIVE, 0, 4)
        track.charge(Phase.NATIVE, 10, 2)  # not contiguous
        assert len(phase_events(recorder)) == 2

    def test_zero_cycle_charge_ignored(self):
        recorder = TimelineRecorder()
        recorder.begin_launch("k", 1)
        recorder.track(0).charge(Phase.NATIVE, 0, 0)
        assert phase_events(recorder) == []


class TestTxBrackets:
    def test_commit_attempt_keeps_phase_slices(self):
        recorder = TimelineRecorder()
        recorder.begin_launch("k", 1)
        track = recorder.track(0)
        track.tx_begin(0)
        track.charge(Phase.BUFFERING, 0, 3)
        track.tx_end(3, "commit", version=7)
        tx = [e for e in recorder.events() if e.get("cat") == "tx"]
        assert len(tx) == 1
        assert tx[0]["args"] == {"outcome": "commit", "version": 7}
        assert tx[0]["cname"] == "good"
        assert phase_events(recorder)[0]["name"] == Phase.BUFFERING

    def test_abort_collapses_attempt_to_aborted(self):
        recorder = TimelineRecorder()
        recorder.begin_launch("k", 1)
        track = recorder.track(0)
        track.tx_begin(0)
        track.charge(Phase.BUFFERING, 0, 3)
        track.charge(Phase.LOCKS, 3, 2)
        track.instant("lock_acquire", 4, {"addr": 9})
        track.tx_end(5, "abort", reason="lock_conflict")
        events = phase_events(recorder)
        assert len(events) == 1
        assert events[0]["name"] == Phase.ABORTED
        assert events[0]["dur"] == 5  # 3 buffering + 2 locks, reclassified
        tx = [e for e in recorder.events() if e.get("cat") == "tx"][0]
        assert tx["args"]["reason"] == "lock_conflict"
        assert tx["cname"] == "terrible"
        # the instant survives the collapse with its original timestamp
        instants = [e for e in recorder.events() if e.get("cat") == "instant"]
        assert instants[0]["ts"] == 4

    def test_pre_attempt_charges_not_collapsed(self):
        recorder = TimelineRecorder()
        recorder.begin_launch("k", 1)
        track = recorder.track(0)
        track.charge(Phase.NATIVE, 0, 5)
        track.tx_begin(5)
        track.charge(Phase.LOCKS, 5, 2)
        track.tx_end(7, "abort", reason="validation")
        names = [e["name"] for e in phase_events(recorder)]
        assert Phase.NATIVE in names and Phase.ABORTED in names
        native = next(e for e in phase_events(recorder) if e["name"] == Phase.NATIVE)
        assert native["dur"] == 5

    def test_unmatched_tx_end_is_noop(self):
        recorder = TimelineRecorder()
        recorder.begin_launch("k", 1)
        recorder.track(0).tx_end(5, "commit")
        assert [e for e in recorder.events() if e.get("cat") == "tx"] == []


class TestRecorder:
    def test_launches_get_distinct_pids(self):
        recorder = TimelineRecorder()
        assert recorder.begin_launch("a", 2) == 0
        recorder.track(0).charge(Phase.NATIVE, 0, 1)
        assert recorder.begin_launch("b", 2) == 1
        recorder.track(0).charge(Phase.NATIVE, 0, 2)
        assert recorder.phase_cycles(launch=0) == {Phase.NATIVE: 1}
        assert recorder.phase_cycles(launch=1) == {Phase.NATIVE: 2}
        assert recorder.phase_cycles() == {Phase.NATIVE: 3}

    def test_thread_tracks_offset_above_sm_tracks(self):
        recorder = TimelineRecorder()
        recorder.begin_launch("k", 4)
        track = recorder.track(2)
        assert track.tid == THREAD_TRACK_OFFSET + 2

    def test_sm_turns_recorded(self):
        recorder = TimelineRecorder()
        recorder.begin_launch("k", 1)
        recorder.sm_turn(0, 3, 100, 8, 2)
        sm = [e for e in recorder.events() if e.get("cat") == "sm"]
        assert sm[0]["name"] == "warp 3"
        assert sm[0]["args"] == {"steps": 2}

    def test_chrome_trace_validates(self):
        recorder = TimelineRecorder(meta={"workload": "unit"})
        recorder.begin_launch("k", 1)
        track = recorder.track(0)
        track.tx_begin(0)
        track.charge(Phase.COMMIT, 0, 2)
        track.instant("fence", 1)
        track.tx_end(2, "commit", version=1)
        recorder.sm_turn(0, 0, 0, 2, 1)
        trace = recorder.to_chrome_trace()
        assert validate_chrome_trace(trace) > 0
        assert trace["otherData"]["workload"] == "unit"

    def test_write_roundtrip(self, tmp_path):
        import json
        import os

        recorder = TimelineRecorder()
        recorder.begin_launch("k", 1)
        recorder.track(0).charge(Phase.NATIVE, 0, 1)
        path = os.path.join(str(tmp_path), "t.trace.json")
        recorder.write(path)
        with open(path) as handle:
            assert validate_chrome_trace(json.load(handle)) > 0

    def test_phase_fractions_sum_to_one(self):
        recorder = TimelineRecorder()
        recorder.begin_launch("k", 1)
        track = recorder.track(0)
        track.charge(Phase.NATIVE, 0, 3)
        track.charge(Phase.COMMIT, 3, 1)
        fractions = recorder.phase_fractions()
        assert abs(sum(fractions.values()) - 1.0) < 1e-12
        assert fractions[Phase.NATIVE] == 0.75


# ----------------------------------------------------------------------
# The record store and the streaming writer
# ----------------------------------------------------------------------
def two_launch_recorder():
    """Two launches, SM turns interleaved with track creation, an aborted
    attempt holding instants, an unmatched ``tx_end``, int and str
    instant arguments, and an open slice left for ``events()`` to flush."""
    recorder = TimelineRecorder(meta={"workload": "unit"})
    recorder.begin_launch("k0", 2)
    recorder.sm_turn(0, 0, 0, 4, 1)
    first = recorder.track(0)
    recorder.sm_turn(1, 1, 0, 6, 2)
    second = recorder.track(1)
    first.charge(Phase.NATIVE, 0, 3)
    first.tx_begin(3)
    first.charge(Phase.BUFFERING, 3, 2)
    first.instant("lock_acquire", 5, {"addr": 12})
    first.charge(Phase.LOCKS, 5, 4)
    first.instant("fence", 9, {"phase": Phase.LOCKS})
    first.tx_end(9, "abort", reason="lock_conflict")
    first.tx_begin(9)
    first.charge(Phase.COMMIT, 9, 2)
    first.tx_end(11, "commit", version=3)
    second.tx_end(2, "commit")  # unmatched: records nothing
    second.charge(Phase.NATIVE, 0, 5)
    second.instant("fence", 5)  # lands before the still-open slice
    recorder.begin_launch("k1", 1)
    third = recorder.track(0)
    recorder.sm_turn(0, 0, 0, 3, 1)
    third.tx_begin(0)
    third.charge(Phase.INIT, 0, 1)
    third.tx_end(1, "commit")
    third.charge(Phase.NATIVE, 1, 2)  # open until events() flushes it
    return recorder


def _meta(pid, tid, name, kind="thread_name"):
    return {"ph": "M", "name": kind, "pid": pid, "tid": tid,
            "args": {"name": name}}


def _turn(pid, sm, warp, ts, dur, steps):
    return {"ph": "X", "cat": "sm", "pid": pid, "tid": sm,
            "name": "warp %d" % warp, "ts": ts, "dur": dur,
            "args": {"steps": steps}}


def _slice(pid, tid, phase, ts, dur):
    return {"ph": "X", "cat": "phase", "pid": pid, "tid": tid,
            "name": phase, "ts": ts, "dur": dur}


def _instant(pid, tid, name, ts, args=None):
    event = {"ph": "i", "s": "t", "cat": "instant", "pid": pid, "tid": tid,
             "name": name, "ts": ts}
    if args:
        event["args"] = args
    return event


def _attempt(pid, tid, ts, dur, args, cname):
    return {"ph": "X", "cat": "tx", "pid": pid, "tid": tid, "name": "tx",
            "ts": ts, "dur": dur, "args": args, "cname": cname}


T0 = THREAD_TRACK_OFFSET
T1 = THREAD_TRACK_OFFSET + 1

EXPECTED_EVENTS = [
    _meta(0, 0, "launch 0: k0", kind="process_name"),
    _meta(0, 0, "SM 0 issue"),
    _meta(0, 1, "SM 1 issue"),
    _turn(0, 0, 0, 0, 4, 1),
    _meta(0, T0, "thread 0"),
    _turn(0, 1, 1, 0, 6, 2),
    _meta(0, T1, "thread 1"),
    _meta(1, 0, "launch 1: k1", kind="process_name"),
    _meta(1, 0, "SM 0 issue"),
    _meta(1, T0, "thread 0"),
    _turn(1, 0, 0, 0, 3, 1),
    # launch 0, thread 0
    _slice(0, T0, Phase.NATIVE, 0, 3),
    _attempt(0, T0, 3, 6, {"outcome": "abort", "reason": "lock_conflict"},
             "terrible"),
    _slice(0, T0, Phase.ABORTED, 3, 6),
    _instant(0, T0, "lock_acquire", 5, {"addr": 12}),
    _instant(0, T0, "fence", 9, {"phase": Phase.LOCKS}),
    _slice(0, T0, Phase.COMMIT, 9, 2),
    _attempt(0, T0, 9, 2, {"outcome": "commit", "version": 3}, "good"),
    # launch 0, thread 1
    _instant(0, T1, "fence", 5),
    _slice(0, T1, Phase.NATIVE, 0, 5),
    # launch 1, thread 0
    _slice(1, T0, Phase.INIT, 0, 1),
    _attempt(1, T0, 0, 1, {"outcome": "commit"}, "good"),
    _slice(1, T0, Phase.NATIVE, 1, 2),
]


def ordered(value):
    """``value`` with every dict as its list of items: equality then
    checks key order too."""
    if isinstance(value, dict):
        return [(key, ordered(item)) for key, item in value.items()]
    if isinstance(value, list):
        return [ordered(item) for item in value]
    return value


def many_batch_recorder():
    """More events than :meth:`TimelineRecorder.write` encodes per batch."""
    recorder = TimelineRecorder()
    recorder.begin_launch("k", 1)
    track = recorder.track(0)
    for turn in range(3 * timeline._WRITE_BATCH + 1):
        recorder.sm_turn(0, turn, turn, 1, 1)
        track.charge(Phase.NATIVE if turn % 2 else Phase.LOCKS, turn, 1)
    return recorder


RECORDERS = {"two_launches": two_launch_recorder, "empty": TimelineRecorder,
             "many_batches": many_batch_recorder}


class TestRecordStore:
    def test_events_rebuild_every_dict_in_order(self):
        assert ordered(two_launch_recorder().events()) == ordered(
            EXPECTED_EVENTS)

    def test_empty_recorder_has_no_events(self):
        recorder = TimelineRecorder()
        assert recorder.events() == []
        assert recorder.phase_cycles() == {}

    @pytest.mark.parametrize("make", RECORDERS.values(), ids=list(RECORDERS))
    def test_write_equals_one_shot_dump(self, make, tmp_path):
        recorder = make()
        path = recorder.write(str(tmp_path / "t.trace.json"))
        with open(path) as handle:
            written = handle.read()
        assert written == json.dumps(recorder.to_chrome_trace()) + "\n"

    @pytest.mark.parametrize("make", RECORDERS.values(), ids=list(RECORDERS))
    def test_phase_cycles_sum_the_phase_slices(self, make):
        recorder = make()
        events = recorder.events()
        for launch in (None, 0, 1):
            expected = {}
            for event in events:
                if event.get("cat") == "phase" and launch in (None, event["pid"]):
                    expected[event["name"]] = (expected.get(event["name"], 0)
                                               + event["dur"])
            assert recorder.phase_cycles(launch) == expected

    def test_instant_takes_one_int_or_str_argument(self):
        recorder = TimelineRecorder()
        recorder.begin_launch("k", 1)
        track = recorder.track(0)
        with pytest.raises(ValueError):
            track.instant("fence", 0, {"phase": "locks", "addr": 1})
        with pytest.raises(TypeError):
            track.instant("fence", 0, {"flag": True})
        assert [e for e in recorder.events() if e.get("cat") == "instant"] == []

    def test_retained_bytes_per_event(self):
        """A test-geometry ra run keeps at most 120 B per recorded event in
        the timeline's store (a dict per event kept about 330 here)."""
        tracemalloc.start()
        try:
            tel = Telemetry(timeline=True)
            run_workload(make_workload("ra", **configs.test_workload_params("ra")),
                         "hv-sorting", configs.unit_gpu(), telemetry=tel)
            gc.collect()
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        held = sum(trace.size for trace in snapshot.filter_traces(
            [tracemalloc.Filter(True, timeline.__file__)]).traces)
        recorded = len(tel.timeline.events())
        assert recorded > 1000
        assert held / recorded <= 120, (held, recorded)
