"""Scheduling policies: spec parsing, selection behaviour, device wiring."""

import dataclasses

import pytest

from repro.faults import FaultPlan
from repro.gpu import Device, GpuConfig, make_device
from repro.gpu.config import small_config
from repro.gpu.errors import LaunchError
from repro.sched.policy import (
    POLICIES,
    Adversarial,
    GreedyThenOldest,
    RoundRobin,
    SchedulingPolicy,
    SeededRandom,
    make_policy,
)
from repro.sched.trace import ReplayPolicy


def spin_kernel(tc, rounds):
    for _ in range(rounds):
        tc.work(1)
        yield


class TestMakePolicy:
    def test_none_is_round_robin(self):
        assert type(make_policy(None)) is RoundRobin

    def test_instances_pass_through(self):
        policy = SeededRandom(seed=9)
        assert make_policy(policy) is policy

    def test_plain_names(self):
        assert type(make_policy("rr")) is RoundRobin
        assert type(make_policy("round-robin")) is RoundRobin
        assert type(make_policy("random")) is SeededRandom
        assert type(make_policy("greedy")) is GreedyThenOldest
        assert type(make_policy("gto")) is GreedyThenOldest
        assert type(make_policy("adversarial")) is Adversarial

    def test_parameters_parsed(self):
        random = make_policy("random:7:2")
        assert (random.seed, random.max_turn) == (7, 2)
        greedy = make_policy("greedy:8")
        assert greedy.turn == 8
        adversarial = make_policy("adversarial:3")
        assert adversarial.seed == 3

    def test_replay_dict(self):
        policy = make_policy({"type": "replay", "decisions": [[0, 1, 2]]})
        assert type(policy) is ReplayPolicy
        assert policy.decisions == [[0, 1, 2]]

    def test_spec_round_trips(self):
        for spec in ("rr", "random:7:2", "greedy:8", "adversarial:3"):
            policy = make_policy(spec)
            clone = make_policy(policy.spec())
            assert type(clone) is type(policy)
            assert clone.spec() == policy.spec()

    def test_replay_spec_round_trips(self):
        policy = ReplayPolicy([[0, 1, 2], [1, 0, 1]])
        clone = make_policy(policy.spec())
        assert clone.decisions == policy.decisions

    def test_errors(self):
        with pytest.raises(ValueError, match="unknown scheduling policy"):
            make_policy("lottery")
        with pytest.raises(ValueError, match="no parameters"):
            make_policy("rr:1")
        with pytest.raises(ValueError, match="too many parameters"):
            make_policy("greedy:1:2")
        with pytest.raises(ValueError, match="too many parameters"):
            make_policy("random:1:2:3")
        with pytest.raises(ValueError, match="non-integer"):
            make_policy("random:x")
        with pytest.raises(ValueError, match="replay"):
            make_policy({"decisions": []})
        with pytest.raises(ValueError):
            make_policy(3.5)

    def test_registry_names_resolve_to_their_class(self):
        for name, cls in POLICIES.items():
            assert type(make_policy(name)) is cls


class _FakeWarp:
    def __init__(self, warp_id, held_per_lane=()):
        self.warp_id = warp_id
        self.lanes = [_FakeLane(held) for held in held_per_lane]


class _FakeLane:
    def __init__(self, held):
        self.done = False
        self.tc = _FakeTc(held)


class _FakeTc:
    def __init__(self, held):
        self.stm = _FakeStm(held) if held is not None else None


class _FakeStm:
    def __init__(self, held):
        self._held = dict.fromkeys(range(held))


class _FakeSm:
    def __init__(self, warps, index=0):
        self.index = index
        self.resident_warps = list(warps)
        self.next_warp = 0
        self.cycles = 0


class TestSelectionBehaviour:
    def setup_method(self):
        self.config = small_config()

    def test_round_robin_cursor(self):
        policy = make_policy("rr")
        policy.reset(self.config)
        sm = _FakeSm([_FakeWarp(0), _FakeWarp(1)])
        assert policy.select(sm) == 0
        policy.issued(sm, 0, retired=False)
        assert policy.select(sm) == 1
        policy.issued(sm, 1, retired=False)
        # cursor past the end wraps to 0
        assert policy.select(sm) == 0

    def test_round_robin_retire_keeps_cursor(self):
        policy = make_policy("rr")
        policy.reset(self.config)
        sm = _FakeSm([_FakeWarp(0), _FakeWarp(1)])
        policy.issued(sm, 0, retired=True)
        assert sm.next_warp == 0

    def test_seeded_random_is_deterministic(self):
        sm = _FakeSm([_FakeWarp(i) for i in range(4)])
        picks = []
        for _ in range(2):
            policy = make_policy("random:5:3")
            policy.reset(self.config)
            picks.append(
                [(policy.select(sm), policy.quota(sm, None)) for _ in range(32)]
            )
        assert picks[0] == picks[1]
        assert any(index != picks[0][0][0] for index, _ in picks[0])

    def test_seeded_random_quota_bounded(self):
        policy = make_policy("random:1:3")
        policy.reset(self.config)
        sm = _FakeSm([_FakeWarp(0)])
        quotas = {policy.quota(sm, None) for _ in range(64)}
        assert quotas <= {1, 2, 3}
        assert len(quotas) > 1

    def test_greedy_sticks_until_retire(self):
        policy = make_policy("greedy:4")
        policy.reset(self.config)
        warps = [_FakeWarp(0), _FakeWarp(1)]
        sm = _FakeSm(warps)
        assert policy.select(sm) == 0
        policy.issued(sm, 0, retired=False)
        # still sticky even after the warp list shifts underneath it
        sm.resident_warps = [warps[1], warps[0]]
        assert policy.select(sm) == 1
        policy.issued(sm, 1, retired=True)
        assert policy.select(sm) == 0  # falls back to the oldest resident

    def test_greedy_quota_is_turn(self):
        policy = make_policy("greedy:7")
        policy.reset(self.config)
        assert policy.quota(_FakeSm([]), None) == 7

    def test_adversarial_starves_lock_holders(self):
        policy = make_policy("adversarial:0")
        policy.reset(self.config)
        committer = _FakeWarp(0, held_per_lane=(3, 2))
        victim = _FakeWarp(1, held_per_lane=(0, 0))
        sm = _FakeSm([committer, victim])
        picks = [policy.select(sm) for _ in range(64)]
        # lock-free warp wins except for the 1-in-8 random escape
        assert picks.count(1) > picks.count(0)
        assert policy.quota(sm, victim) == 1

    def test_adversarial_ignores_finished_lanes_and_bare_threads(self):
        warp = _FakeWarp(0, held_per_lane=(4, None))
        warp.lanes[0].done = True
        assert Adversarial._locks_held(warp) == 0


def mixed_kernel(tc, base, rounds):
    # uneven trip counts retire warps at different turns; scattered reads
    # and contended atomics give every turn a memory-transaction charge
    for i in range(rounds + tc.tid % 3):
        tc.gread(base + (tc.tid * 7 + i) % 64)
        yield
        tc.atomic_inc(base + tc.tid % 4)
        yield


class TestDeviceWiring:
    @pytest.mark.parametrize("armed", [False, True], ids=["bare", "injector"])
    @pytest.mark.parametrize("devices", [1, 2])
    def test_rr_branch_matches_policy_replay(self, devices, armed):
        """The issue loop's inline round-robin branch and its policy branch
        issue the same schedule at the same cost: a ReplayPolicy re-issuing
        an rr launch's own trace reproduces it exactly, on one device and
        on a two-device topology, with and without an armed (empty) fault
        injector hooking every decision."""

        def launch(**kwargs):
            device = make_device(dataclasses.replace(small_config(), devices=devices))
            base = device.mem.alloc(64)
            if armed:
                FaultPlan([]).arm(device)
            return device.launch(mixed_kernel, 5, 12, args=(base, 3), **kwargs)

        rr = launch(policy="rr", record_schedule=True)
        trace = rr.schedule_trace
        assert trace.policy == "rr"
        assert trace.total_steps() == rr.steps
        assert trace.meta["cycles"] == rr.cycles
        replay = launch(policy=trace.replay_policy(), record_schedule=True)
        assert replay.schedule_trace.decisions == trace.decisions
        assert replay.cycles == rr.cycles
        assert replay.steps == rr.steps
        assert replay.mem_txns == rr.mem_txns > 0
        if devices == 2:
            assert rr.device_cycles is not None
            assert replay.device_cycles == rr.device_cycles
        assert launch().schedule_trace is None

    def test_config_scheduler_spec_drives_launch(self):
        config = small_config()
        config.scheduler = "random:3"
        config.record_schedule = True
        result = Device(config).launch(spin_kernel, 4, 8, args=(5,))
        assert result.schedule_trace.policy == "random:3:4"
        # same total work regardless of interleaving
        assert result.steps == Device(small_config()).launch(
            spin_kernel, 4, 8, args=(5,)
        ).steps

    def test_every_policy_completes_the_kernel(self):
        for spec in ("rr", "random:1", "greedy:4", "adversarial:2"):
            device = Device(small_config())
            counter = device.mem.alloc(1)

            def kernel(tc, counter):
                for _ in range(3):
                    tc.atomic_inc(counter)
                    yield

            device.launch(kernel, 4, 8, args=(counter,), policy=spec)
            assert device.mem.read(counter) == 4 * 8 * 3, spec

    def test_out_of_range_selection_is_a_launch_error(self):
        class Broken(SchedulingPolicy):
            name = "broken"

            def select(self, sm):
                return 99

        with pytest.raises(LaunchError, match="selected warp index"):
            Device(small_config()).launch(
                spin_kernel, 2, 8, args=(3,), policy=Broken()
            )

    def test_launch_policy_argument_overrides_config(self):
        config = small_config()
        config.scheduler = "adversarial:1"
        result = Device(config).launch(
            spin_kernel, 2, 8, args=(3,), policy="rr", record_schedule=True
        )
        assert result.schedule_trace.policy == "rr"


class TestGoldenCompatibility:
    def test_default_config_still_round_robin(self):
        config = GpuConfig()
        assert config.scheduler == "rr"
        assert config.record_schedule is False
