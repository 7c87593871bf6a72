"""FaultSpec/FaultPlan parsing, validation, arming, and determinism."""

import pickle

import pytest

from repro.faults.plan import FAULT_KINDS, FaultInjector, FaultPlan, FaultSpec
from repro.gpu import Device
from repro.gpu.config import small_config


class TestFaultSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec("bitflip")

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError, match="skip"):
            FaultSpec("stale_read", skip=-1)
        with pytest.raises(ValueError, match="skip"):
            FaultSpec("stale_read", count=0)
        with pytest.raises(ValueError, match="duration"):
            FaultSpec("warp_stall", duration=0)

    def test_parse_full_syntax(self):
        spec = FaultSpec.parse("torn_write:region=data,skip=3,count=2,param=0xff")
        assert spec.kind == "torn_write"
        assert spec.region == "data"
        assert spec.skip == 3
        assert spec.count == 2
        assert spec.param == 0xFF

    def test_parse_bare_kind(self):
        spec = FaultSpec.parse("dropped_write")
        assert spec.kind == "dropped_write"
        assert spec.region is None
        assert spec.count == 1

    def test_parse_rejects_unknown_option(self):
        with pytest.raises(ValueError, match="unknown fault option"):
            FaultSpec.parse("stale_read:bogus=1")
        with pytest.raises(ValueError, match="bad fault option"):
            FaultSpec.parse("stale_read:count")

    def test_every_kind_parses(self):
        for kind in FAULT_KINDS:
            assert FaultSpec.parse(kind).kind == kind

    def test_as_dict_round_trips(self):
        spec = FaultSpec("cas_fail", region="g_lockTab", skip=1, count=4)
        clone = FaultSpec(**spec.as_dict())
        assert clone.as_dict() == spec.as_dict()

    def test_picklable(self):
        spec = FaultSpec("clock_skew", region="g_clock", tid=3)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.as_dict() == spec.as_dict()


class TestFaultPlan:
    def test_accepts_strings_and_specs(self):
        plan = FaultPlan(["stale_read:count=2", FaultSpec("dropped_write")])
        assert len(plan) == 2
        assert all(isinstance(s, FaultSpec) for s in plan.specs)

    def test_add_chains(self):
        plan = FaultPlan().add("cas_fail", region="locks").add("clock_skew")
        assert [s.kind for s in plan.specs] == ["cas_fail", "clock_skew"]

    def test_arm_installs_injector(self):
        dev = Device(small_config())
        dev.mem.alloc(8, "data")
        plan = FaultPlan(["dropped_write:region=data"])
        injector = plan.arm(dev)
        assert isinstance(injector, FaultInjector)
        assert dev.fault_injector is injector

    def test_arm_rejects_unknown_region(self):
        dev = Device(small_config())
        dev.mem.alloc(8, "data")
        plan = FaultPlan(["dropped_write:region=nonexistent"])
        with pytest.raises(ValueError, match="no such allocation"):
            plan.arm(dev)

    def test_plan_is_reusable_counters_live_in_injector(self):
        """Arming twice yields fresh occurrence counters each time."""
        plan = FaultPlan(["dropped_write:region=data"])
        results = []
        for _ in range(2):
            dev = Device(small_config(warp_size=1))
            data = dev.mem.alloc(4, "data")
            injector = plan.arm(dev)

            def kernel(tc):
                tc.gwrite(data, 7)
                yield

            dev.launch(kernel, 1, 1)
            results.append((len(injector.fired), dev.mem.read(data)))
        assert results[0] == results[1] == (1, 0)


class TestDeterminism:
    def test_identical_plans_replay_bit_identically(self):
        def run():
            dev = Device(small_config(warp_size=2))
            data = dev.mem.alloc(8, "data")
            plan = FaultPlan([
                "stale_read:region=data,skip=1,count=2",
                "torn_write:region=data,skip=2,count=1,param=0xf",
            ])
            injector = plan.arm(dev)

            def kernel(tc):
                for round_ in range(3):
                    addr = data + tc.tid % 8
                    tc.gwrite(addr, 16 + round_)
                    yield
                    tc.gread(addr)
                    yield

            result = dev.launch(kernel, 1, 4)
            return result.cycles, injector.fired, list(dev.mem.words)

        assert run() == run()


class TestParseHardening:
    """CLI-token validation: bad specs must name the offending token."""

    def test_duplicate_key_rejected_by_name(self):
        with pytest.raises(ValueError, match="duplicate fault option 'count'"):
            FaultSpec.parse("stale_read:count=1,count=2")

    def test_non_integer_skip_names_token(self):
        with pytest.raises(ValueError, match="skip=soon .*not an integer"):
            FaultSpec.parse("stale_read:skip=soon")

    def test_non_integer_count_names_token(self):
        with pytest.raises(ValueError, match="count=3.5 .*not an integer"):
            FaultSpec.parse("stale_read:count=3.5")

    def test_hex_and_spaces_still_accepted(self):
        spec = FaultSpec.parse("torn_write: region = data , param = 0x1f ")
        assert spec.region == "data"
        assert spec.param == 0x1F

    def test_parse_round_trips_through_repr_fields(self):
        for text in (
            "stale_read:region=data,skip=3,count=2",
            "torn_write:region=g_lockTab,param=0xff,tid=7",
            "clock_skew:region=g_clock,count=2",
        ):
            spec = FaultSpec.parse(text)
            clone = FaultSpec(**spec.as_dict())
            assert clone.as_dict() == spec.as_dict()
