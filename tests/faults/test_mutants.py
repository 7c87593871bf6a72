"""The seeded-bug corpus: reversibility, pickling, and per-mutant efficacy."""

import pickle

import pytest

from repro.faults.campaign import CHECKERS
from repro.faults.mutants import MUTANTS, MutantRuntimeFactory
from repro.gpu import Device
from repro.harness.configs import explore_gpu
from repro.stm import STM_VARIANTS, EXTENSION_VARIANTS, StmConfig, make_runtime

from tests.helpers import explore

PARAMS = dict(array_size=64, grid=2, block=16, txs_per_thread=2, actions_per_tx=2)
ALL_VARIANTS = set(STM_VARIANTS) | set(EXTENSION_VARIANTS)
STEPS = dict(max_steps=120_000)


class TestCorpusConsistency:
    def test_names_match_keys(self):
        for name, mutant in MUTANTS.items():
            assert mutant.name == name

    def test_variants_and_expectations_are_known(self):
        for mutant in MUTANTS.values():
            assert mutant.variants, mutant.name
            assert set(mutant.variants) <= ALL_VARIANTS, mutant.name
            assert mutant.expected, mutant.name
            assert set(mutant.expected) <= set(CHECKERS), mutant.name

    def test_corpus_size(self):
        # the ISSUE asks for a corpus of ~10 seeded protocol bugs
        assert len(MUTANTS) >= 10


def _fresh_runtime(variant):
    device = Device(explore_gpu())
    device.mem.alloc(64, "data")
    return make_runtime(variant, device, StmConfig(num_locks=16, shared_data_size=64))


class TestApplyRevert:
    def test_apply_marks_and_revert_restores(self):
        mutant = MUTANTS["skip-revalidation"]
        runtime = _fresh_runtime("hv-sorting")
        original_make = runtime.make_thread
        mutant.apply(runtime)
        assert runtime._mutant is mutant
        assert runtime.make_thread is not original_make
        mutant.revert(runtime)
        assert not hasattr(runtime, "_mutant")
        # instance attribute gone: class-level make_thread is live again
        assert "make_thread" not in vars(runtime)

    def test_apply_rejects_wrong_variant(self):
        runtime = _fresh_runtime("cgl")
        with pytest.raises(ValueError, match="targets"):
            MUTANTS["skip-revalidation"].apply(runtime)

    def test_apply_rejects_double_application(self):
        runtime = _fresh_runtime("hv-sorting")
        MUTANTS["skip-revalidation"].apply(runtime)
        with pytest.raises(RuntimeError, match="already carries"):
            MUTANTS["lost-lock-release"].apply(runtime)

    def test_runtime_attrs_are_saved_and_restored(self):
        mutant = MUTANTS["unsorted-lock-acquisition"]
        runtime = _fresh_runtime("hv-sorting")
        before = runtime.max_lock_attempts
        mutant.apply(runtime)
        assert runtime.max_lock_attempts != before
        mutant.revert(runtime)
        assert runtime.max_lock_attempts == before

    def test_reverted_runtime_behaves_identically(self):
        """A mutated-then-reverted runtime must be indistinguishable from
        a fresh one — same cycles, same commits, no violations."""

        def run(pre_mutate):
            def factory(variant, device, stm_config):
                runtime = make_runtime(variant, device, stm_config)
                if pre_mutate:
                    mutant = MUTANTS["forgotten-version-update"]
                    mutant.apply(runtime)
                    mutant.revert(runtime)
                return runtime

            return explore(
                "ra", PARAMS, "hv-sorting", runtime_factory=factory,
            )

        clean, reverted = run(False), run(True)
        assert reverted.failure is None
        assert reverted.cycles == clean.cycles
        assert reverted.commits == clean.commits


class TestFactory:
    def test_factory_pickles(self):
        factory = MutantRuntimeFactory("clock-stuck")
        clone = pickle.loads(pickle.dumps(factory))
        runtime = clone("hv-backoff", Device(explore_gpu()),
                        StmConfig(num_locks=16, shared_data_size=64))
        assert runtime._mutant is MUTANTS["clock-stuck"]

    def test_factory_rejects_unknown_mutant(self):
        with pytest.raises(KeyError):
            MutantRuntimeFactory("no-such-bug")(
                "hv-sorting", Device(explore_gpu()),
                StmConfig(num_locks=16, shared_data_size=64),
            )


def _mutated_outcome(name, variant, sanitize):
    mutant = MUTANTS[name]
    params = dict(PARAMS)
    params.update(mutant.workload_params)
    return explore(
        "ra", params, variant,
        sanitize=sanitize,
        gpu_overrides=dict(STEPS),
        runtime_factory=MutantRuntimeFactory(name),
    )


class TestEfficacy:
    """Representative per-checker detections (the full 13-mutant matrix is
    the ``inject`` CLI target / CI's smokes job)."""

    def test_oracle_catches_skipped_revalidation(self):
        outcome = _mutated_outcome("skip-revalidation", "hv-sorting", False)
        assert outcome.failure is not None

    def test_oracle_catches_vbv_skipped_validation(self):
        outcome = _mutated_outcome("vbv-skip-validation", "vbv", False)
        assert outcome.failure is not None

    def test_sanitizer_catches_missing_writeback_fence(self):
        outcome = _mutated_outcome("missing-writeback-fence", "optimized", True)
        assert any(v["check"] == "missing_fence" for v in outcome.violations)

    def test_sanitizer_catches_stuck_clock(self):
        outcome = _mutated_outcome("clock-stuck", "hv-backoff", True)
        assert any(
            v["check"] == "clock_monotonicity" for v in outcome.violations
        )

    def test_sanitizer_catches_read_own_write_incoherence(self):
        outcome = _mutated_outcome("read-own-write-incoherence", "hv-sorting", True)
        assert any(v["check"] == "read_own_write" for v in outcome.violations)

    def test_egpgv_release_before_writeback_flagged_unlocked(self):
        outcome = _mutated_outcome(
            "egpgv-release-before-writeback", "egpgv", True
        )
        assert any(v["check"] == "unlocked_write" for v in outcome.violations)

    def test_lost_lock_release_destroys_progress_or_leaks(self):
        outcome = _mutated_outcome("lost-lock-release", "hv-sorting", True)
        assert outcome.failure is not None
