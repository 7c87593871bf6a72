"""Struct-of-arrays lane state and batched cost-fold reductions.

The warp stepper records one *issue group* per distinct (operation kind,
phase) pair of a step; each group's pending addresses accumulate in a flat
array (struct-of-arrays layout: one parallel address array per group
rather than one record object per lane).  This module supplies the batched
reductions the cost fold runs over those arrays, plus an on-demand
:class:`LaneArrays` snapshot of per-lane state as NumPy arrays.

Every reduction is two-tier:

* a **scalar tier** — specialized Python folds (all-same-address spin
  probes, tiny groups, set/dict reductions) that win decisively at
  warp-sized inputs: building a 32-element set costs ~1.3 us while the
  equivalent ``np.unique`` round-trip costs ~6 us, dominated by the
  list-to-ndarray conversion (measured on CPython 3.11, see
  benchmarks/test_bench_hotloop.py which pins the crossover);
* a **vector tier** — NumPy batch reductions that take over above
  :data:`VECTOR_THRESHOLD` addresses, where C-side sorting/bincount
  amortizes the conversion.  This is the path wide-geometry devices
  (warp_size >= 256, scattered metadata sweeps) fold through.

Both tiers are exact: the property tests in
``tests/gpu/test_soa_equivalence.py`` drive random geometries through both
and assert identical cycle charges, and the golden-cycle fixtures pin that
the tiered fold reproduces the seed simulator bit-for-bit.

NumPy is a pinned dependency (pyproject.toml), but it is imported only on
first use of the vector tier or of :class:`LaneArrays`: no harness geometry
reaches :data:`VECTOR_THRESHOLD`, and the import is ~120 ms and ~14 MiB
that every CLI start and every pool worker would otherwise pay.  Without
NumPy installed the scalar tier simply handles all sizes.
"""

import importlib.util

#: Group size at which the fold switches from the scalar tier to NumPy.
#: Below this, set/dict folds beat ``np.unique``/``np.bincount`` because
#: list-to-ndarray conversion dominates; the measured crossover on CPython
#: 3.11 sits past 1024 elements for sort-based reductions, so the
#: threshold is conservative — warp-sized groups always take the scalar
#: tier, only genuinely wide batches pay the conversion.
VECTOR_THRESHOLD = 512

_HAVE_NUMPY = importlib.util.find_spec("numpy") is not None


def have_numpy():
    """True when the vector tier is available."""
    return _HAVE_NUMPY


def distinct_lines(addrs, line_words):
    """Number of distinct ``line_words``-sized lines touched by ``addrs``.

    This is the coalescing reduction: one warp instruction's scattered
    addresses collapse into per-line memory transactions.
    """
    if _HAVE_NUMPY and len(addrs) >= VECTOR_THRESHOLD:
        import numpy as np

        return int(
            np.unique(np.floor_divide(np.asarray(addrs, dtype=np.int64),
                                      line_words)).size
        )
    return len({addr // line_words for addr in addrs})


def max_multiplicity(addrs):
    """Highest same-address count in ``addrs`` (atomic serialization depth)
    together with the distinct-address count, as ``(max_count, distinct)``."""
    n = len(addrs)
    if _HAVE_NUMPY and n >= VECTOR_THRESHOLD:
        import numpy as np

        counts = np.unique(np.asarray(addrs, dtype=np.int64),
                           return_counts=True)[1]
        return int(counts.max()), int(counts.size)
    multiplicity = {}
    get = multiplicity.get
    for addr in addrs:
        multiplicity[addr] = get(addr, 0) + 1
    return max(multiplicity.values()), len(multiplicity)


def max_bank_conflicts(addrs, banks):
    """Deepest same-bank pileup of one shared-memory instruction."""
    if _HAVE_NUMPY and len(addrs) >= VECTOR_THRESHOLD:
        import numpy as np

        return int(
            np.bincount(np.mod(np.asarray(addrs, dtype=np.int64), banks),
                        minlength=1).max()
        )
    per_bank = {}
    get = per_bank.get
    for addr in addrs:
        bank = addr % banks
        per_bank[bank] = get(bank, 0) + 1
    return max(per_bank.values())


class LaneArrays:
    """Struct-of-arrays snapshot of one warp's lane state.

    Materialized on demand (watchdog snapshots, sharded-merge diagnostics,
    microbenchmarks) rather than maintained per operation: the per-op hot
    path appends to plain group arrays, and this view batches the per-lane
    columns — program counter (resumptions survived), active mask, last
    pending address, accumulated latency cycles — into NumPy arrays when
    NumPy is available, plain lists otherwise.
    """

    __slots__ = ("lane_id", "active", "pc", "cycles", "in_tx")

    def __init__(self, warp):
        lanes = warp.lanes
        ids = [lane.tc.lane_id for lane in lanes]
        active = [not lane.done for lane in lanes]
        pc = [warp.steps] * len(lanes)
        cycles = [lane.tc.cycles_total for lane in lanes]
        in_tx = [lane.tc.cycles_in_tx for lane in lanes]
        if _HAVE_NUMPY:
            import numpy as np

            self.lane_id = np.asarray(ids, dtype=np.int32)
            self.active = np.asarray(active, dtype=bool)
            self.pc = np.asarray(pc, dtype=np.int64)
            self.cycles = np.asarray(cycles, dtype=np.int64)
            self.in_tx = np.asarray(in_tx, dtype=np.int64)
        else:  # pragma: no cover - stripped envs
            self.lane_id = ids
            self.active = active
            self.pc = pc
            self.cycles = cycles
            self.in_tx = in_tx

    def as_dict(self):
        """JSON-friendly column dump (diagnostic snapshots)."""
        return {
            "lane_id": [int(v) for v in self.lane_id],
            "active": [bool(v) for v in self.active],
            "pc": [int(v) for v in self.pc],
            "cycles": [int(v) for v in self.cycles],
            "in_tx": [int(v) for v in self.in_tx],
        }
