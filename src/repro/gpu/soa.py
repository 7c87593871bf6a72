"""Struct-of-arrays lane state and batched cost-fold reductions.

The warp stepper records one *issue group* per distinct (operation kind,
phase) pair of a step; each group's pending addresses accumulate in a flat
array (struct-of-arrays layout: one parallel address array per group
rather than one record object per lane).  This module supplies the batched
reductions the cost fold runs over those arrays.

The reductions are specialized Python set/dict folds: at warp-sized inputs
they beat any array-library round-trip, whose list-to-ndarray conversion
alone costs more than the fold.  The property tests in
``tests/gpu/test_soa_equivalence.py`` hold each against a naive reference,
and the golden-cycle fixtures pin that the fold reproduces the seed
simulator bit-for-bit.
"""


def distinct_lines(addrs, line_words):
    """Number of distinct ``line_words``-sized lines touched by ``addrs``.

    This is the coalescing reduction: one warp instruction's scattered
    addresses collapse into per-line memory transactions.
    """
    return len({addr // line_words for addr in addrs})


def max_multiplicity(addrs):
    """Highest same-address count in ``addrs`` (atomic serialization depth)
    together with the distinct-address count, as ``(max_count, distinct)``."""
    multiplicity = {}
    get = multiplicity.get
    for addr in addrs:
        multiplicity[addr] = get(addr, 0) + 1
    return max(multiplicity.values()), len(multiplicity)


def max_bank_conflicts(addrs, banks):
    """Deepest same-bank pileup of one shared-memory instruction."""
    per_bank = {}
    get = per_bank.get
    for addr in addrs:
        bank = addr % banks
        per_bank[bank] = get(bank, 0) + 1
    return max(per_bank.values())

