"""Per-kind fault semantics, armed-device routing, and zero-cost disarming."""

import itertools

import pytest

from repro.faults.plan import FaultPlan
from repro.faults.sanitizer import StmSanitizer
from repro.gpu import Device
from repro.gpu.config import small_config
from repro.harness import configs
from repro.harness.runner import run_workload
from repro.telemetry import Telemetry
from repro.telemetry.validate import validate_file
from repro.workloads import make_workload

from tests.helpers import explore

PARAMS = dict(array_size=64, grid=2, block=16, txs_per_thread=2, actions_per_tx=2)


def fired(injector, kind):
    """How many times faults of ``kind`` fired."""
    return sum(1 for entry in injector.fired if entry["kind"] == kind)


def single_thread_device():
    dev = Device(small_config(warp_size=1))
    data = dev.mem.alloc(8, "data")
    return dev, data


class TestMemoryFaults:
    def test_stale_read_serves_previous_value(self):
        dev, data = single_thread_device()
        injector = FaultPlan(["stale_read:region=data"]).arm(dev)
        seen = []

        def kernel(tc):
            tc.gwrite(data, 5)
            yield
            tc.gwrite(data, 9)  # shadow now holds 5
            yield
            seen.append(tc.gread(data))
            yield
            seen.append(tc.gread(data))
            yield

        dev.launch(kernel, 1, 1)
        # first read faulted to the pre-store value, second is healthy
        assert seen == [5, 9]
        assert fired(injector, "stale_read") == 1
        assert dev.mem.read(data) == 9  # memory itself never corrupted

    def test_torn_write_mixes_old_and_new_bits(self):
        dev, data = single_thread_device()
        injector = FaultPlan(["torn_write:region=data,skip=1,param=0xff"]).arm(dev)

        def kernel(tc):
            tc.gwrite(data, 0xABCD)
            yield
            tc.gwrite(data, 0x1234)  # torn: low byte new, high bits old
            yield

        dev.launch(kernel, 1, 1)
        assert dev.mem.read(data) == (0x1234 & 0xFF) | (0xABCD & ~0xFF)
        assert fired(injector, "torn_write") == 1

    def test_dropped_write_leaves_memory_untouched(self):
        dev, data = single_thread_device()
        injector = FaultPlan(["dropped_write:region=data,skip=1"]).arm(dev)

        def kernel(tc):
            tc.gwrite(data, 11)
            yield
            tc.gwrite(data, 22)  # dropped
            yield

        dev.launch(kernel, 1, 1)
        assert dev.mem.read(data) == 11
        assert fired(injector, "dropped_write") == 1

    def test_lost_lock_release_only_drops_unlock_values(self):
        dev, data = single_thread_device()
        injector = FaultPlan(["lost_lock_release:region=data"]).arm(dev)

        def kernel(tc):
            tc.gwrite(data, 3)  # lock bit set: not a release, passes through
            yield
            tc.gwrite(data, 0)  # the release: dropped, lock stays held
            yield

        dev.launch(kernel, 1, 1)
        assert dev.mem.read(data) == 3
        assert fired(injector, "lost_lock_release") == 1


class TestAtomicFaults:
    def test_cas_fail_reports_conflict_without_mutating(self):
        dev, data = single_thread_device()
        injector = FaultPlan(["cas_fail:region=data"]).arm(dev)
        seen = []

        def kernel(tc):
            seen.append(tc.atomic_cas(data, 0, 1))
            yield
            seen.append(tc.atomic_cas(data, 0, 1))  # past the window: real
            yield

        dev.launch(kernel, 1, 1)
        assert seen[0] != 0  # reported a conflicting value
        assert seen[1] == 0  # the retry genuinely succeeded
        assert dev.mem.read(data) == 1
        assert fired(injector, "cas_fail") == 1

    def test_cas_fail_applies_to_atomic_or_locks(self):
        dev, data = single_thread_device()
        injector = FaultPlan(["cas_fail:region=data"]).arm(dev)
        seen = []

        def kernel(tc):
            seen.append(tc.atomic_or(data, 1))
            yield

        dev.launch(kernel, 1, 1)
        assert seen == [1]  # lock looked held although it was free
        assert dev.mem.read(data) == 0  # and was never actually taken
        assert fired(injector, "cas_fail") == 1

    def test_clock_skew_skips_the_tick(self):
        dev, data = single_thread_device()
        injector = FaultPlan(["clock_skew:region=data"]).arm(dev)
        seen = []

        def kernel(tc):
            seen.append(tc.atomic_add(data, 1))  # skipped
            yield
            seen.append(tc.atomic_add(data, 1))  # real
            yield

        dev.launch(kernel, 1, 1)
        # both ticks observed the same old value: the clock stood still
        assert seen == [0, 0]
        assert dev.mem.read(data) == 1
        assert fired(injector, "clock_skew") == 1


class TestWarpStall:
    def test_stall_redirects_issue_decisions(self):
        dev = Device(small_config(warp_size=2, num_sms=1))
        data = dev.mem.alloc(64, "data")
        injector = FaultPlan(
            ["warp_stall:sm=0,warp=0,after=1,duration=6"]
        ).arm(dev)

        def kernel(tc):
            for _ in range(8):
                tc.gwrite(data + tc.tid, tc.tid)
                yield

        result = dev.launch(kernel, 1, 4)  # two warps resident
        assert fired(injector, "warp_stall") > 0
        assert result.cycles > 0  # and the kernel still completed

    def test_lone_warp_is_never_stalled(self):
        dev = Device(small_config(warp_size=2, num_sms=1))
        data = dev.mem.alloc(8, "data")
        injector = FaultPlan(["warp_stall:sm=0,warp=0,duration=100"]).arm(dev)

        def kernel(tc):
            tc.gwrite(data + tc.tid, 1)
            yield

        dev.launch(kernel, 1, 2)  # a single warp
        assert fired(injector, "warp_stall") == 0


class TestIntegration:
    def test_faults_flow_through_a_captured_run(self):
        outcome = explore(
            "ra", PARAMS, "hv-sorting",
            fault_plan=["cas_fail:region=g_lockTab,count=3"],
        )
        assert len(outcome.fired) == 3
        # spurious CAS failures are tolerated by the protocol: retried
        assert outcome.failure is None

INSTRUMENTS = ("timeline", "sanitizer", "injector")


def instrumented_run(devices, instruments):
    """ra/hv-sorting at test geometry with ``instruments`` attached (the
    injector is an armed-empty plan): (cycles, steps, mem_txns), the run,
    the telemetry session and the sanitizer."""
    gpu = configs.unit_gpu()
    gpu.devices = devices
    tel = Telemetry(timeline=True) if "timeline" in instruments else None
    sanitizer = StmSanitizer() if "sanitizer" in instruments else None
    run = run_workload(
        make_workload("ra", **configs.test_workload_params("ra")),
        "hv-sorting", gpu, telemetry=tel, sanitizer=sanitizer,
        fault_plan=FaultPlan([]) if "injector" in instruments else None,
    )
    counts = (run.cycles, sum(k.steps for k in run.kernel_results),
              sum(k.mem_txns for k in run.kernel_results))
    return counts, run, tel, sanitizer


class TestInstrumentsCompose:
    """Every instrument is a thread-context probe, so any combination runs
    on one launch — and observes the cost model without changing it."""

    @pytest.mark.parametrize("devices", [1, 2])
    @pytest.mark.parametrize(
        "instruments",
        list(itertools.combinations(INSTRUMENTS, 2)) + [INSTRUMENTS],
        ids="+".join,
    )
    def test_combination_matches_bare_run(self, devices, instruments):
        bare, _, _, _ = instrumented_run(devices, ())
        counts, run, tel, sanitizer = instrumented_run(devices, instruments)
        assert counts == bare
        if tel is not None:
            for launch, kernel in enumerate(run.kernel_results):
                assert (tel.timeline.phase_fractions(launch=launch)
                        == kernel.phases.fractions())
        if sanitizer is not None:
            assert sanitizer.ok, sanitizer.report()

    def test_firing_byzantine_cell_is_unchanged_by_a_timeline(self, tmp_path):
        def cell(telemetry):
            return explore(
                "cns", dict(objects=4, grid=4, block=16), "hv-sorting",
                sanitize=True,
                # lane 0 of both blocks on device 1 (explore geometry:
                # 2 SMs per device, blocks round-robin over 4 SMs)
                fault_plan=["torn_publish:tids=32+48"],
                gpu_overrides=dict(devices=2, link_model="uniform:60",
                                   max_steps=400_000),
                telemetry=telemetry,
            )

        plain = cell(None)
        tel = Telemetry(timeline=True)
        traced = cell(tel)
        assert plain.fired and "torn_version" in plain.first_violations
        assert traced.first_violations == plain.first_violations
        assert traced.fired == plain.fired
        assert traced.cycles == plain.cycles
        path = tel.write_timeline(str(tmp_path / "byz.trace.json"))
        assert "valid Chrome trace" in validate_file(path)


class TestZeroCostDisarmed:
    def test_unarmed_run_is_bit_identical_to_plain_run(self):
        """Golden-cycle guarantee: a device that never arms a plan takes
        the exact same path (and cycle count) as before the subsystem
        existed; arming and then removing the injector restores that
        state."""

        def run(arm_then_disarm):
            dev = Device(small_config(warp_size=2))
            data = dev.mem.alloc(16, "data")
            if arm_then_disarm:
                FaultPlan(["stale_read:region=data"]).arm(dev)
                dev.fault_injector = None

            def kernel(tc):
                value = tc.gread(data + tc.tid)
                yield
                tc.gwrite(data + tc.tid, value + tc.tid)
                yield

            result = dev.launch(kernel, 1, 8)
            return result.cycles, result.steps, list(dev.mem.words)

        assert run(False) == run(True)

    def test_armed_empty_plan_matches_unarmed_cycles(self):
        """The injector's presence (generic issue path + instrumented
        contexts) must be cost-neutral in simulated time."""
        baseline = explore("ra", PARAMS, "hv-sorting")
        armed = explore("ra", PARAMS, "hv-sorting", fault_plan=FaultPlan())
        assert armed.cycles == baseline.cycles
        assert armed.steps == baseline.steps
        assert armed.fired == []
