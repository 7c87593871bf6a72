"""Property tests: the SoA cost fold equals a naive reference, exactly.

Two layers of equivalence, both driven by Hypothesis:

* the batched reductions in :mod:`repro.gpu.soa` must agree with an
  obviously-correct naive implementation on random address arrays; and
* a full warp executing random per-lane programs — random lengths, so
  lanes retire at different steps and the active mask shrinks over the
  run — must charge exactly the cycles, warp steps and memory
  transactions that a straightforward per-step reference model predicts
  from the grouped cost rules.

"Exactly" is the point: the specialized fold is only allowed to change
*how* the cost is computed, never its value (the repo's determinism
promise, pinned more coarsely by the golden-cycle fixtures).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu import soa
from repro.gpu.config import GpuConfig
from repro.gpu.scheduler import Device


# ----------------------------------------------------------------------
# The batched reductions against naive references
# ----------------------------------------------------------------------
ADDRS = st.lists(st.integers(min_value=0, max_value=4095), min_size=1, max_size=200)


@given(addrs=ADDRS, line_words=st.integers(min_value=1, max_value=64))
@settings(deadline=None, max_examples=80)
def test_distinct_lines_tiers_match_reference(addrs, line_words):
    reference = len({addr // line_words for addr in addrs})
    assert soa.distinct_lines(addrs, line_words) == reference


@given(addrs=ADDRS)
@settings(deadline=None, max_examples=80)
def test_max_multiplicity_tiers_match_reference(addrs):
    counts = {}
    for addr in addrs:
        counts[addr] = counts.get(addr, 0) + 1
    reference = (max(counts.values()), len(counts))
    assert soa.max_multiplicity(addrs) == reference


@given(addrs=ADDRS, banks=st.integers(min_value=1, max_value=64))
@settings(deadline=None, max_examples=80)
def test_max_bank_conflicts_tiers_match_reference(addrs, banks):
    per_bank = {}
    for addr in addrs:
        per_bank[addr % banks] = per_bank.get(addr % banks, 0) + 1
    reference = max(per_bank.values())
    assert soa.max_bank_conflicts(addrs, banks) == reference


# ----------------------------------------------------------------------
# Whole-warp fold vs a naive per-step reference model
# ----------------------------------------------------------------------
POOL_WORDS = 64

# one op: (kind, addr); kinds cover the distinct cost rules of the fold
OP = st.tuples(st.sampled_from(["read", "write", "l2", "atomic"]),
               st.integers(min_value=0, max_value=POOL_WORDS - 1))
# per-lane programs of different lengths: lanes retire at different warp
# steps, so the fold sees every active-mask shape along the way
PROGRAMS = st.lists(st.lists(OP, max_size=6), min_size=1, max_size=8)


def _kernel(tc, programs):
    for kind, addr in programs[tc.lane_id]:
        if kind == "read":
            tc.gread(addr)
        elif kind == "write":
            tc.gwrite(addr, 1)
        elif kind == "l2":
            tc.gread_l2(addr)
        else:
            tc.atomic_add(addr, 1)
        yield


def _reference_counts(programs, config):
    """Naive per-step replay of the grouped cost rules.

    At warp step ``k`` (0-based) every lane whose program is longer than
    ``k`` performs its op ``k``; a lane whose program has exactly ``k``
    ops retires on that resumption.  The warp runs until every lane has
    retired, i.e. ``max(len(p)) + 1`` steps.
    """
    costs = config.costs
    steps = max(len(program) for program in programs) + 1
    cycles = 0
    mem_txns = 0
    for k in range(steps):
        groups = {}
        for program in programs:
            if k < len(program):
                kind, addr = program[k]
                groups.setdefault(kind, []).append(addr)
        step_cost = 0
        for kind, addrs in groups.items():
            step_cost += costs.issue_cost
            if kind == "l2":
                step_cost += costs.l2_read_cost
            elif kind == "atomic":
                counts = {}
                for addr in addrs:
                    counts[addr] = counts.get(addr, 0) + 1
                deepest = max(counts.values())
                mem_txns += len(counts)
                step_cost += costs.atomic_cost * (deepest if deepest > 1 else 1)
            else:  # read / write: coalescing over cache lines
                lines = len({addr // config.line_words for addr in addrs})
                mem_txns += lines
                step_cost += costs.mem_txn_cost + costs.mem_pipeline_cost * (lines - 1)
        cycles += step_cost
    return cycles, steps, mem_txns


@given(programs=PROGRAMS)
@settings(deadline=None, max_examples=60)
def test_warp_fold_matches_reference_model(programs):
    config = GpuConfig(
        warp_size=8,
        num_sms=1,
        strict_lockstep=True,
        check_bounds=True,
    )
    device = Device(config)
    device.mem.alloc(POOL_WORDS, "pool")
    result = device.launch(_kernel, 1, len(programs), args=(programs,))
    ref_cycles, ref_steps, ref_mem_txns = _reference_counts(programs, config)
    assert result.steps == ref_steps
    assert result.mem_txns == ref_mem_txns
    # kernel time is SM time under the DRAM-bandwidth roofline
    assert result.cycles == max(ref_cycles, ref_mem_txns * config.costs.dram_txn_cost)
