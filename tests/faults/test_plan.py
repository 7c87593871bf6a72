"""FaultSpec/FaultPlan parsing, validation, arming, seams and determinism."""

import pickle
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.plan import (
    BYZ_KINDS,
    CRASH_KINDS,
    FAULT_KINDS,
    FaultInjector,
    FaultPlan,
    FaultSpec,
)
from repro.gpu import Device
from repro.gpu.config import small_config
from repro.gpu.thread import probe_seams


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
        spec = FaultSpec("clock_skew", region="g_clock", tids=(3,))
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.as_dict() == spec.as_dict()


class TestFaultPlan:
    def test_accepts_strings_and_specs(self):
        plan = FaultPlan(["stale_read:count=2", FaultSpec("dropped_write")])
        assert len(plan.specs) == 2
        assert all(isinstance(s, FaultSpec) for s in plan.specs)

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

    @pytest.mark.parametrize("kind", ["warp_stall", "lie_validation",
                                      "stale_replay"])
    def test_unaddressed_kinds_ignore_the_region(self, kind):
        FaultPlan(["%s:region=nonexistent" % kind]).arm(Device(small_config()))

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
            "torn_write:region=g_lockTab,param=0xff,tids=7",
            "clock_skew:region=g_clock,count=2",
        ):
            spec = FaultSpec.parse(text)
            clone = FaultSpec(**spec.as_dict())
            assert clone.as_dict() == spec.as_dict()


#: each option's value space for the generated texts (``region`` any word)
_INTS = st.integers(min_value=-3, max_value=40).map(str)
_VALUES = {
    "region": st.sampled_from(["data", "g_clock", ""]),
    "tids": st.lists(st.integers(min_value=-1, max_value=40), min_size=1,
                     max_size=3).map(lambda tids: "+".join(map(str, tids))),
}
_KEYS = [key for key in FaultSpec.__slots__ if key != "kind"]
_JUNK = st.sampled_from(["x", "1.5", "0x", "", "+", "0+"])


@st.composite
def _spec_texts(draw):
    kind = draw(st.sampled_from(FAULT_KINDS + ("bitflip", "")))
    items = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        key = draw(st.sampled_from(_KEYS + ["tid", "bogus"]))
        # mostly well-formed items, so that valid texts carry options too
        value = draw(st.one_of(*[_VALUES.get(key, _INTS)] * 3 + [_JUNK]))
        item = "%s=%s" % (key, value)
        items.append(draw(st.sampled_from([item] * 3 + [key])))
    return kind + (":" + ",".join(items) if items else "")


class TestOneGrammar:
    """Every kind, crash and byzantine, speaks the one ``FaultSpec.parse``
    grammar."""

    @settings(max_examples=300, deadline=None)
    @given(_spec_texts())
    def test_parse_or_named_rejection(self, text):
        """A text parses and round-trips, or raises ValueError naming the
        rejected token (beyond quoting the whole text back)."""
        try:
            spec = FaultSpec.parse(text)
        except ValueError as exc:
            kind, _, rest = text.partition(":")
            tokens = [kind] + [t for item in rest.split(",") if rest
                               for t in (item, item.partition("=")[0])]
            message = str(exc).replace(" in %r" % (text,), "")
            assert any(repr(token) in message
                       or token and re.search(r"\b%s\b" % re.escape(token),
                                              message)
                       for token in tokens), (text, message)
            return
        clone = FaultSpec(**spec.as_dict())
        assert clone.as_dict() == spec.as_dict()
        assert FaultSpec.parse(text).as_dict() == spec.as_dict()

    def test_twelve_kinds_in_two_families(self):
        assert len(FAULT_KINDS) == 12
        assert set(CRASH_KINDS) | set(BYZ_KINDS) == set(FAULT_KINDS)
        assert not set(CRASH_KINDS) & set(BYZ_KINDS)

    def test_default_lanes_depend_on_the_family(self):
        crash = FaultSpec("dropped_write")
        assert crash.targets(0) and crash.targets(17)
        assert crash.lanes(3) == (0, 1, 2)
        byz = FaultSpec("lock_hoard")
        assert byz.targets(0) and not byz.targets(17)

    def test_one_tid_is_the_one_lane_case_of_tids(self):
        spec = FaultSpec.parse("cas_fail:tids=7")
        assert spec.tids == (7,)
        assert spec.targets(7) and not spec.targets(6)

    def test_tids_and_stride_are_exclusive(self):
        with pytest.raises(ValueError, match="stride=4"):
            FaultSpec.parse("lock_hoard:tids=1,stride=4")

    def test_byz_tids_ignores_crash_specs(self):
        plan = FaultPlan(["stale_read", "lock_hoard:tids=2+4"])
        assert plan.byz_tids(8) == {2, 4}


#: the seams each kind binds on its injector
_SEAMS = ("read", "write", "atomic", "event", "filter_validation")
KIND_SEAMS = {
    "stale_read": {"read", "write"},
    "torn_write": {"write"},
    "dropped_write": {"write"},
    "cas_fail": {"atomic"},
    "lost_lock_release": {"write"},
    "clock_skew": {"atomic"},
    "warp_stall": set(),
    "lie_validation": {"filter_validation"},
    "torn_publish": {"write"},
    "stale_replay": {"event"},
    "lock_hoard": {"write"},
    "clock_poison": {"atomic"},
}


class TestInjectorSeams:
    def test_empty_plan_binds_no_seam(self):
        injector = FaultPlan([]).arm(Device(small_config()))
        assert [name for name in _SEAMS if hasattr(injector, name)] == []
        assert probe_seams((injector,)) == (None,) * 6
        assert injector.byzantine is False

    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_each_kind_binds_only_its_seams(self, kind):
        injector = FaultPlan([kind]).arm(Device(small_config()))
        bound = {name for name in _SEAMS if hasattr(injector, name)}
        assert bound == KIND_SEAMS[kind]
        assert injector.byzantine is (kind in BYZ_KINDS)


class TestWindows:
    """``skip``/``count`` count per lane when lanes are selected, and over
    all matching operations otherwise."""

    @staticmethod
    def dropped(text):
        dev = Device(small_config(warp_size=4))
        data = dev.mem.alloc(4, "data")
        injector = FaultPlan([text]).arm(dev)

        def kernel(tc):
            tc.gwrite(data + tc.tid, 1)
            yield

        dev.launch(kernel, 1, 4)
        return sorted(entry["tid"] for entry in injector.fired)

    def test_without_a_selector_the_window_is_global(self):
        assert self.dropped("dropped_write:region=data,count=2") == [0, 1]

    def test_with_a_selector_the_window_is_per_lane(self):
        assert self.dropped("dropped_write:region=data,stride=1") == [
            0, 1, 2, 3,
        ]
        assert self.dropped("dropped_write:region=data,tids=1+3") == [1, 3]
