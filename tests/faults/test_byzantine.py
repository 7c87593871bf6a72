"""Byzantine kinds: spec parsing, behaviors, containment, determinism."""

import pickle

import pytest

from repro.faults.plan import BYZ_KINDS, FaultPlan, FaultSpec

from tests.helpers import explore

RA = dict(array_size=256, grid=2, block=16, txs_per_thread=2,
          actions_per_tx=2)
CNS = dict(objects=4, grid=2, block=16)


def run(workload, params, variant, plan, **kwargs):
    kwargs.setdefault("gpu_overrides", dict(max_steps=400_000))
    return explore(
        workload, params, variant, sanitize=True, fault_plan=plan, **kwargs,
    )


class TestByzantineSpec:
    def test_rejects_unknown_behavior(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec("crash_loop")

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError, match="skip"):
            FaultSpec("lock_hoard", skip=-1)
        with pytest.raises(ValueError, match="skip"):
            FaultSpec("lock_hoard", count=0)
        with pytest.raises(ValueError, match="stride"):
            FaultSpec("lock_hoard", stride=0)

    def test_parse_full_syntax(self):
        spec = FaultSpec.parse("lie_validation:tids=1+17,skip=1,count=3")
        assert spec.kind == "lie_validation"
        assert spec.tids == (1, 17)
        assert spec.skip == 1
        assert spec.count == 3

    def test_parse_stride_syntax(self):
        spec = FaultSpec.parse("torn_publish:stride=16,offset=3,param=0x40")
        assert spec.stride == 16
        assert spec.offset == 3
        assert spec.param == 0x40

    def test_parse_rejects_unknown_and_malformed_options(self):
        with pytest.raises(ValueError, match="unknown fault option"):
            FaultSpec.parse("lock_hoard:bogus=1")
        with pytest.raises(ValueError, match="bad fault option"):
            FaultSpec.parse("lock_hoard:count")

    def test_parse_rejects_duplicate_option(self):
        with pytest.raises(ValueError, match="duplicate fault option"):
            FaultSpec.parse("lock_hoard:count=1,count=2")

    def test_parse_rejects_non_integer_naming_token(self):
        with pytest.raises(ValueError, match="skip=many.*not an integer"):
            FaultSpec.parse("lock_hoard:skip=many")
        with pytest.raises(ValueError, match="tids=x.*not an integer"):
            FaultSpec.parse("lock_hoard:tids=1+x")

    def test_every_behavior_parses(self):
        for behavior in BYZ_KINDS:
            assert FaultSpec.parse(behavior).kind == behavior

    def test_default_lane_is_thread_zero(self):
        spec = FaultSpec("clock_poison")
        assert spec.targets(0) and not spec.targets(1)
        assert spec.lanes(32) == (0,)

    def test_stride_designates_residue_class(self):
        spec = FaultSpec("torn_publish", stride=16, offset=3)
        assert spec.lanes(48) == (3, 19, 35)
        assert spec.targets(19) and not spec.targets(4)

    def test_explicit_tids_clip_to_total(self):
        spec = FaultSpec("lock_hoard", tids=(5, 99))
        assert spec.lanes(32) == (5,)

    def test_as_dict_round_trips_and_pickles(self):
        spec = FaultSpec.parse("stale_replay:tids=0+3,count=2")
        clone = FaultSpec(**spec.as_dict())
        assert clone.as_dict() == spec.as_dict()
        assert pickle.loads(pickle.dumps(spec)).as_dict() == spec.as_dict()


class TestByzantinePlan:
    def test_accepts_strings_and_specs(self):
        plan = FaultPlan(["lock_hoard", FaultSpec("clock_poison")])
        assert [s.kind for s in plan.specs] == [
            "lock_hoard", "clock_poison",
        ]

    def test_byz_tids_is_union_of_lanes(self):
        plan = FaultPlan(["lock_hoard:tids=1+5", "clock_poison:tids=5+9"])
        assert plan.byz_tids(32) == {1, 5, 9}

    def test_plan_pickles(self):
        plan = FaultPlan(["torn_publish:stride=8"])
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.specs[0].as_dict() == plan.specs[0].as_dict()


class TestBehaviors:
    """Each behavior is detected or contained on a representative variant
    (the full cross-product is the ``python -m repro byz`` campaign)."""

    def test_lie_validation_exposed_by_oracle_blast_radius_zero(self):
        out = run("cns", CNS, "hv-sorting",
                  FaultPlan(["lie_validation:tids=0+3"]))
        assert out.fired and out.fired[0]["kind"] == "lie_validation"
        assert out.failure == "serializability"
        # every oracle violation is pinned on the designated liars:
        # the innocent majority still serializes (containment)
        assert out.attribution["blast_radius"] == 0
        assert out.attribution["byz_read_violations"] >= 1

    def test_lie_validation_immune_without_validation_phase(self):
        out = run("cns", CNS, "cgl",
                  FaultPlan(["lie_validation:tids=0+3"]))
        assert not out.fired
        assert out.failure is None

    def test_torn_publish_detected_online(self):
        out = run("cns", CNS, "hv-sorting",
                  FaultPlan(["torn_publish:tids=0+3"]))
        assert out.fired
        assert "torn_version" in out.first_violations

    def test_torn_publish_detected_at_exit_on_egpgv(self):
        out = run("cns", CNS, "egpgv",
                  FaultPlan(["torn_publish:tids=0+3"]))
        assert out.fired
        assert "lock_leak" in out.first_violations

    def test_lock_hoard_detected_despite_watchdog_trip(self):
        out = run("cns", CNS, "hv-sorting",
                  FaultPlan(["lock_hoard:tids=0+3"]))
        assert out.fired and out.failure == "progress"
        assert "lock_leak" in out.first_violations

    def test_stale_replay_detected_and_attributed(self):
        out = run("ra", RA, "vbv", FaultPlan(["stale_replay:tids=0+3"]))
        assert out.fired
        assert "unlocked_write" in out.first_violations
        # the blasted addresses are attributed to the adversary
        assert out.attribution["byz_divergence"] >= 0

    def test_clock_poison_detected(self):
        out = run("ra", RA, "hv-backoff",
                  FaultPlan(["clock_poison:tids=0+3"]))
        assert out.fired
        assert set(out.first_violations) & {
            "torn_version", "clock_monotonicity",
        }

    def test_detection_latency_is_finite_and_ordered(self):
        out = run("cns", CNS, "hv-sorting",
                  FaultPlan(["torn_publish:tids=0+3"]))
        first_lie = out.fired[0]["cycle"]
        first_violation = min(out.first_violations.values())
        assert 0 <= first_lie <= first_violation

    def test_armed_runs_replay_bit_identically(self):
        outs = [
            run("cns", CNS, "hv-sorting",
                FaultPlan(["torn_publish:tids=0+3"]))
            for _ in range(2)
        ]
        assert outs[0].fired == outs[1].fired
        assert outs[0].cycles == outs[1].cycles
        assert outs[0].final_words == outs[1].final_words
        assert outs[0].violations == outs[1].violations

    def test_empty_plan_is_cost_neutral(self):
        plain = run("cns", CNS, "hv-sorting", None)
        armed = run("cns", CNS, "hv-sorting", FaultPlan([]))
        assert plain.failure is None and armed.failure is None
        assert plain.cycles == armed.cycles
        assert plain.final_words == armed.final_words

    def test_crash_fault_and_byzantine_lane_share_one_run(self):
        """One plan arms a crash kind beside a byzantine kind on one
        device: both fire, and the run replays bit-identically."""
        plan = ["stale_read:region=cns_objects", "torn_publish:tids=0+3"]
        outs = [run("cns", CNS, "hv-sorting", plan) for _ in range(2)]
        assert {entry["kind"] for entry in outs[0].fired} == {
            "stale_read", "torn_publish",
        }
        assert outs[0].attribution is not None
        for field in ("fired", "cycles", "final_words", "violations",
                      "attribution"):
            assert getattr(outs[0], field) == getattr(outs[1], field)
