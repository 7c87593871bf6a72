"""Device scheduling: block placement, residency, watchdog, results."""

import pytest

from repro.gpu import Device, GpuConfig, LivelockError, ProgressError
from repro.gpu.config import CostModel, small_config
from repro.gpu.errors import LaunchError


def counting_kernel(tc, base):
    tc.atomic_inc(base)
    yield


class TestLaunch:
    def test_every_thread_runs(self):
        dev = Device(small_config(warp_size=4, num_sms=2))
        ctr = dev.mem.alloc(1)
        result = dev.launch(counting_kernel, 8, 16, args=(ctr,))
        assert dev.mem.read(ctr) == 8 * 16
        assert result.threads == 8 * 16

    def test_invalid_geometry_rejected(self):
        dev = Device(small_config())
        with pytest.raises(LaunchError):
            dev.launch(counting_kernel, 0, 4, args=(0,))
        with pytest.raises(LaunchError):
            dev.launch(counting_kernel, 4, 0, args=(0,))

    def test_more_blocks_than_sms(self):
        dev = Device(small_config(warp_size=2, num_sms=2))
        ctr = dev.mem.alloc(1)
        dev.launch(counting_kernel, 16, 2, args=(ctr,))
        assert dev.mem.read(ctr) == 32

    def test_residency_limit_respected(self):
        """Blocks beyond max_blocks_per_sm are queued, not resident."""
        config = GpuConfig(
            warp_size=2,
            num_sms=1,
            max_blocks_per_sm=2,
            max_warps_per_sm=4,
            strict_lockstep=True,
            check_bounds=True,
        )
        dev = Device(config)
        ctr = dev.mem.alloc(1)
        result = dev.launch(counting_kernel, 6, 2, args=(ctr,))
        assert dev.mem.read(ctr) == 12
        assert result.threads == 12

    def test_attach_callback_runs_per_thread(self):
        dev = Device(small_config(warp_size=4))
        attached = []

        def attach(tc):
            attached.append(tc.tid)
            tc.stm = "sentinel"

        def kernel(tc):
            assert tc.stm == "sentinel"
            yield

        dev.launch(kernel, 2, 4, attach=attach)
        assert sorted(attached) == list(range(8))

    def test_kernel_exception_propagates(self):
        dev = Device(small_config())

        def kernel(tc):
            yield
            raise RuntimeError("kernel bug")

        with pytest.raises(RuntimeError, match="kernel bug"):
            dev.launch(kernel, 1, 2)


class TestWatchdog:
    def test_infinite_spin_raises_livelock_error(self):
        """All stuck lanes are actively stepping: the watchdog classifies
        the trip as livelock (still a ProgressError for old callers)."""
        dev = Device(small_config(warp_size=2, max_steps=1000))

        def kernel(tc):
            while True:
                tc.work(1)
                yield

        with pytest.raises(LivelockError) as exc:
            dev.launch(kernel, 1, 2)
        assert isinstance(exc.value, ProgressError)
        assert "livelock" in str(exc.value)
        assert exc.value.steps > 1000
        assert exc.value.snapshot["live_warps"]

    def test_parked_lane_trip_is_deadlock_not_livelock(self):
        """A lane parked at a reconvergence point means blocked, not
        spinning: the trip keeps the base ProgressError class."""
        dev = Device(small_config(warp_size=2, num_sms=1, max_steps=500))

        def kernel(tc):
            if tc.lane_id == 0:
                yield from tc.reconverge("stuck")
            else:
                while True:
                    tc.work(1)
                    yield

        with pytest.raises(ProgressError) as exc:
            dev.launch(kernel, 1, 2)
        assert not isinstance(exc.value, LivelockError)
        assert "deadlock" in str(exc.value)
        assert exc.value.snapshot["live_warps"][0]["waiting"] == {0: "stuck"}

    def test_snapshot_names_live_warps(self):
        dev = Device(small_config(warp_size=2, max_steps=500))

        def kernel(tc):
            if tc.lane_id == 0:
                yield
                return
            while True:
                yield

        with pytest.raises(ProgressError) as exc:
            dev.launch(kernel, 1, 2)
        warps = exc.value.snapshot["live_warps"]
        assert warps[0]["live_lanes"] == 1

    def test_snapshot_reports_waiting_labels_of_deadlocked_reconvergence(self):
        """A lane parked at a reconvergence point its sibling never reaches
        deadlocks the warp; the watchdog snapshot must name the parked lane
        and its label so the failure is debuggable."""
        dev = Device(small_config(warp_size=2, num_sms=1, max_steps=500))

        def kernel(tc):
            if tc.lane_id == 0:
                yield from tc.reconverge("rendezvous")
            else:
                while True:
                    tc.work(1)
                    yield

        with pytest.raises(ProgressError) as exc:
            dev.launch(kernel, 1, 2)
        warps = exc.value.snapshot["live_warps"]
        assert len(warps) == 1
        state = warps[0]
        assert state["sm"] == 0
        assert state["warp"] == 0
        assert state["live_lanes"] == 2
        assert state["waiting"] == {0: "rendezvous"}
        # neither lane is driven by a lane stepper (reconverge waits and
        # plain loops are generator code); tests/gpu/test_lane_steppers.py
        # covers the populated form
        assert state["polling"] == {}
        assert set(state) == {"sm", "warp", "live_lanes", "waiting", "polling"}

    def test_overshoot_bounded_by_one_turn_quota(self):
        """The per-issue watchdog check bounds overshoot to one turn quota,
        whatever ``warp_steps_per_turn`` is — the regression the old
        per-sweep check failed (a wide device could run a whole extra sweep
        past the limit before noticing)."""
        max_steps = 1000
        for turn in (1, 64):
            config = GpuConfig(
                warp_size=2,
                num_sms=2,
                warp_steps_per_turn=turn,
                max_steps=max_steps,
                strict_lockstep=True,
                check_bounds=True,
            )
            dev = Device(config)

            def kernel(tc):
                while True:
                    tc.work(1)
                    yield

            with pytest.raises(ProgressError) as exc:
                dev.launch(kernel, 4, 2)
            assert max_steps < exc.value.steps <= max_steps + turn, turn

    def test_overshoot_bounded_on_the_policy_path_too(self):
        max_steps = 1000
        dev = Device(small_config(warp_size=2, max_steps=max_steps))

        def kernel(tc):
            while True:
                tc.work(1)
                yield

        with pytest.raises(ProgressError) as exc:
            dev.launch(kernel, 4, 2, policy="random:0")
        # SeededRandom quotas are bounded by its max_turn (default 4)
        assert max_steps < exc.value.steps <= max_steps + 4

    def test_livelock_keeps_the_partial_schedule_trace(self):
        """A recorded launch that trips the watchdog carries the schedule
        that caused it — under round robin as under any other policy — and
        that trace accounts for every step the watchdog counted."""
        for policy in ("rr", "random:1"):
            dev = Device(small_config(max_steps=200))
            flag = dev.mem.alloc(1)

            def kernel(tc, flag):
                while not tc.gread_l2(flag):  # never set: spins forever
                    yield

            with pytest.raises(LivelockError) as exc:
                dev.launch(kernel, 2, 8, args=(flag,), policy=policy,
                           record_schedule=True)
            trace = exc.value.schedule_trace
            assert trace is not None and trace.decisions, policy
            steps = sum(steps for _sm, _warp, steps in trace.decisions)
            assert steps == exc.value.steps, policy

    def test_snapshot_reports_per_sm_state(self):
        """The snapshot's ``sms`` section distinguishes blocks starved in
        the queue from admitted warps that are stuck resident."""
        config = GpuConfig(
            warp_size=2,
            num_sms=1,
            max_blocks_per_sm=1,
            max_warps_per_sm=1,
            max_steps=500,
            strict_lockstep=True,
            check_bounds=True,
        )
        dev = Device(config)

        def kernel(tc):
            while True:
                tc.work(1)
                yield

        with pytest.raises(ProgressError) as exc:
            dev.launch(kernel, 3, 2)
        sms = exc.value.snapshot["sms"]
        assert len(sms) == 1
        state = sms[0]
        assert state["sm"] == 0
        assert state["resident_blocks"] == 1
        assert state["resident_warps"] == 1
        assert state["pending_blocks"] == 2  # starved in queue, never admitted
        assert state["cycles"] > 0

    def test_snapshot_sms_cover_idle_sms_too(self):
        """Every SM appears in the snapshot, including ones that drained."""
        dev = Device(small_config(warp_size=2, num_sms=2, max_steps=500))

        def kernel(tc):
            if tc.block.index == 1:  # the block on SM 1 finishes immediately
                yield
                return
            while True:
                tc.work(1)
                yield

        with pytest.raises(ProgressError) as exc:
            dev.launch(kernel, 2, 2)
        sms = exc.value.snapshot["sms"]
        assert [s["sm"] for s in sms] == [0, 1]
        assert sms[0]["resident_warps"] == 1
        assert sms[1]["resident_warps"] == 0
        assert sms[1]["pending_blocks"] == 0

    def test_snapshot_lists_every_live_warp(self):
        """All still-resident warps appear in the snapshot, across SMs."""
        dev = Device(small_config(warp_size=2, num_sms=2, max_steps=500))

        def kernel(tc):
            while True:
                tc.work(1)
                yield

        with pytest.raises(ProgressError) as exc:
            dev.launch(kernel, 4, 2)
        warps = exc.value.snapshot["live_warps"]
        assert len(warps) == 4
        assert {w["sm"] for w in warps} == {0, 1}
        assert sorted(w["warp"] for w in warps) == [0, 1, 2, 3]


class TestCycleAccounting:
    def test_cycles_positive_and_max_of_sms(self):
        dev = Device(small_config(warp_size=4, num_sms=2))
        ctr = dev.mem.alloc(1)
        result = dev.launch(counting_kernel, 4, 4, args=(ctr,))
        assert result.cycles == max(result.sm_cycles)
        assert result.cycles > 0

    def test_parallel_blocks_cheaper_than_serial(self):
        """The same total work over more SMs takes fewer kernel cycles."""
        work_kernel = counting_kernel

        def run(num_sms):
            dev = Device(small_config(warp_size=4, num_sms=num_sms))
            ctr = dev.mem.alloc(1)
            return dev.launch(work_kernel, 8, 4, args=(ctr,)).cycles

        assert run(8) < run(1)

    def test_divergent_steps_cost_more_than_uniform(self):
        """Lanes doing different op kinds in a step cost extra issues."""

        def uniform(tc, base):
            tc.gwrite(base + tc.lane_id, 1)
            yield

        def divergent(tc, base):
            if tc.lane_id % 2 == 0:
                tc.gwrite(base + tc.lane_id, 1)
            else:
                tc.atomic_add(base + tc.lane_id, 1)
            yield

        dev_a = Device(small_config(warp_size=4))
        base_a = dev_a.mem.alloc(4)
        cycles_uniform = dev_a.launch(uniform, 1, 4, args=(base_a,)).cycles

        dev_b = Device(small_config(warp_size=4))
        base_b = dev_b.mem.alloc(4)
        cycles_divergent = dev_b.launch(divergent, 1, 4, args=(base_b,)).cycles
        assert cycles_divergent > cycles_uniform

    def test_work_cycles_are_max_across_lanes(self):
        config = small_config(warp_size=4, num_sms=1)
        dev = Device(config)

        def kernel(tc):
            tc.work(100)
            yield

        result = dev.launch(kernel, 1, 4)
        # one warp step: max(100 across lanes) = 100, not 400
        assert result.cycles == 100

    def test_fence_cost_charged(self):
        dev = Device(small_config(warp_size=2))

        def kernel(tc):
            tc.fence()
            yield

        result = dev.launch(kernel, 1, 2)
        assert result.cycles == dev.config.costs.issue_cost + dev.config.costs.fence_cost

    def test_atomic_contention_serializes(self):
        """Same-address atomics in one step cost more than distinct-address."""

        def contended(tc, base):
            tc.atomic_inc(base)
            yield

        def spread(tc, base):
            tc.atomic_inc(base + tc.lane_id)
            yield

        dev_a = Device(small_config(warp_size=4))
        base_a = dev_a.mem.alloc(4)
        c_contended = dev_a.launch(contended, 1, 4, args=(base_a,)).cycles

        dev_b = Device(small_config(warp_size=4))
        base_b = dev_b.mem.alloc(4)
        c_spread = dev_b.launch(spread, 1, 4, args=(base_b,)).cycles
        assert c_contended > c_spread
