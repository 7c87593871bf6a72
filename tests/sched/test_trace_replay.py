"""Schedule record/replay: the replay spec and the determinism property."""

import json
import os

import pytest

from repro.common.fsio import atomic_write_json
from repro.gpu import Device
from repro.gpu.config import small_config
from repro.sched.policy import make_policy
from repro.sched.trace import ReplayPolicy, ScheduleTrace
from repro.harness import configs

from tests.helpers import explore

#: (policy spec, STM variant) grid for the replay-determinism property:
#: seeded and deterministic policies crossed with lock-based, hierarchical
#: and serialized runtimes.
PROPERTY_GRID = [
    ("random:1", "hv-sorting"),
    ("random:2", "tbv-sorting"),
    ("random:3", "cgl"),
    ("adversarial:1", "hv-sorting"),
    ("adversarial:2", "vbv"),
    ("random:4:8", "hv-sorting"),
    ("rr", "optimized"),
]


def spin_kernel(tc, rounds):
    for _ in range(rounds):
        tc.work(1)
        yield


class TestScheduleTrace:
    def test_record_and_totals(self):
        trace = ScheduleTrace(policy="rr")
        trace.record(0, 3, 2)
        trace.record(1, 0, 1)
        assert trace.decisions == [[0, 3, 2], [1, 0, 1]]
        decisions = trace.as_dict()["decisions"]
        assert sum(steps for _sm, _warp, steps in decisions) == 3

    def test_dict_round_trip(self):
        """``as_dict`` is a policy spec replaying its decisions."""
        trace = ScheduleTrace(
            policy="random:1:4", decisions=[[0, 1, 2]], meta={"kernel": "k"}
        )
        payload = trace.as_dict()
        assert payload["meta"] == {"kernel": "k"}
        policy = make_policy(payload)
        assert type(policy) is ReplayPolicy
        assert policy.decisions == trace.decisions

    def test_json_string_round_trip(self):
        trace = ScheduleTrace(policy="rr", decisions=[[0, 0, 1], [1, 2, 3]])
        payload = json.loads(json.dumps(trace.as_dict()))
        assert payload == trace.as_dict()
        assert make_policy(payload).decisions == trace.decisions

    def test_json_file_round_trip(self, tmp_path):
        """The file form fuzz artifacts use: ``atomic_write_json`` out,
        ``json.load`` back, the same replay spec."""
        trace = ScheduleTrace(policy="adversarial:2", decisions=[[1, 1, 1]])
        path = os.path.join(str(tmp_path), "trace.json")
        atomic_write_json(path, trace.as_dict())
        with open(path) as handle:
            assert json.load(handle) == trace.as_dict()

    def test_as_dict_is_a_replay_spec(self):
        trace = ScheduleTrace(policy="rr", decisions=[[0, 0, 1]])
        payload = trace.as_dict()
        assert payload["type"] == "replay"
        assert payload["version"] == ScheduleTrace.VERSION

    def test_decisions_copied_not_aliased(self):
        decisions = [[0, 0, 1]]
        trace = ScheduleTrace(decisions=decisions)
        decisions[0][2] = 99
        assert trace.decisions == [[0, 0, 1]]


class _FakeWarp:
    def __init__(self, warp_id):
        self.warp_id = warp_id


class _FakeSm:
    def __init__(self, warps, index=0):
        self.index = index
        self.resident_warps = list(warps)
        self.next_warp = 0


class TestReplayPolicy:
    def setup_method(self):
        self.config = small_config()

    def test_replays_decisions_in_order(self):
        policy = ReplayPolicy([[0, 7, 2], [0, 5, 1]])
        policy.reset(self.config)
        sm = _FakeSm([_FakeWarp(5), _FakeWarp(7)])
        assert policy.select(sm) == 1  # warp_id 7 first
        assert policy.quota(sm, None) == 2
        assert policy.select(sm) == 0  # then warp_id 5
        assert policy.quota(sm, None) == 1

    def test_stale_decisions_skipped(self):
        """Decisions naming retired warps — the shrinker's edits — are
        skipped rather than crashing the replay."""
        policy = ReplayPolicy([[0, 99, 4], [0, 5, 1]])
        policy.reset(self.config)
        sm = _FakeSm([_FakeWarp(5)])
        assert policy.select(sm) == 0
        assert policy.quota(sm, None) == 1

    def test_exhausted_stream_falls_back_to_round_robin(self):
        policy = ReplayPolicy([])
        policy.reset(self.config)
        sm = _FakeSm([_FakeWarp(0), _FakeWarp(1)])
        assert policy.select(sm) == 0
        assert policy.quota(sm, None) == self.config.warp_steps_per_turn
        policy.issued(sm, 0, retired=False)
        assert policy.select(sm) == 1

    def test_streams_are_per_sm(self):
        policy = ReplayPolicy([[1, 8, 3], [0, 4, 2]])
        policy.reset(self.config)
        sm0 = _FakeSm([_FakeWarp(4)], index=0)
        sm1 = _FakeSm([_FakeWarp(8)], index=1)
        assert policy.select(sm1) == 0
        assert policy.quota(sm1, None) == 3
        assert policy.select(sm0) == 0
        assert policy.quota(sm0, None) == 2


class TestDeviceReplay:
    def test_trace_replays_to_identical_result(self):
        recorded = Device(small_config()).launch(
            spin_kernel, 4, 8, args=(5,), policy="random:9", record_schedule=True
        )
        trace = recorded.schedule_trace
        replayed = Device(small_config()).launch(
            spin_kernel, 4, 8, args=(5,), policy=trace.as_dict()
        )
        assert replayed.cycles == recorded.cycles
        assert replayed.steps == recorded.steps

    def test_replay_from_json_artifact(self, tmp_path):
        recorded = Device(small_config()).launch(
            spin_kernel, 4, 8, args=(5,), policy="adversarial:4",
            record_schedule=True,
        )
        path = os.path.join(str(tmp_path), "sched.json")
        atomic_write_json(path, recorded.schedule_trace.as_dict())
        with open(path) as handle:
            loaded = json.load(handle)
        replayed = Device(small_config()).launch(
            spin_kernel, 4, 8, args=(5,), policy=loaded
        )
        assert replayed.cycles == recorded.cycles


class TestReplayDeterminismProperty:
    """The tentpole property: record once, replay identically.

    For every (policy, runtime) pair the replayed run must reproduce the
    recorded run's cycles, steps and final memory image exactly.
    """

    @pytest.mark.parametrize("policy,variant", PROPERTY_GRID)
    def test_replay_reproduces_run(self, policy, variant):
        params = configs.test_workload_params("ra")
        outcome = explore("ra", params, variant, policy)
        assert outcome.ok, outcome.detail
        assert outcome.traces, "recording must capture every launch"
        replay = explore("ra", params, variant, outcome.replay_policies())
        assert replay.ok, replay.detail
        assert replay.cycles == outcome.cycles
        assert replay.steps == outcome.steps
        assert replay.final_words == outcome.final_words
        assert replay.commits == outcome.commits

    def test_distinct_seeds_explore_distinct_schedules(self):
        params = configs.test_workload_params("ra")
        traces = [
            explore("ra", params, "hv-sorting", "random:%d" % seed)
            .traces[0]["decisions"]
            for seed in (1, 2)
        ]
        assert traces[0] != traces[1]
