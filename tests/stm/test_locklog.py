"""Encounter-time lock-sorting: the order-preserving hashed lock-log."""

import pytest
from hypothesis import given, strategies as st

from repro.stm.locklog import ComparisonTally, LockLog


def lock_ids(log):
    """Lock ids in the log's iteration (acquisition) order."""
    return [entry.lock_id for entry in log]


class TestInsertion:
    def test_iterates_in_sorted_order(self):
        log = LockLog(num_locks=64, num_buckets=4)
        for lock_id in [42, 7, 63, 0, 21]:
            log.insert(lock_id)
        assert lock_ids(log) == [0, 7, 21, 42, 63]

    def test_duplicates_merge_bits(self):
        log = LockLog(num_locks=16)
        log.insert(3, read=True)
        log.insert(3, write=True)
        (entry,) = log
        assert len(log) == 1
        assert entry.read and entry.write

    def test_read_write_bits_independent(self):
        log = LockLog(num_locks=16)
        log.insert(1, read=True)
        log.insert(2, write=True)
        first, second = log
        assert first.read and not first.write
        assert second.write and not second.read

    def test_out_of_range_rejected(self):
        log = LockLog(num_locks=16)
        with pytest.raises(ValueError):
            log.insert(16)
        with pytest.raises(ValueError):
            log.insert(-1)

    def test_clear(self):
        log = LockLog(num_locks=16)
        log.insert(3)
        log.clear()
        assert len(log) == 0
        assert lock_ids(log) == []

    def test_invalid_bucket_count(self):
        with pytest.raises(ValueError):
            LockLog(num_locks=16, num_buckets=0)

    def test_buckets_capped_by_locks(self):
        log = LockLog(num_locks=2, num_buckets=100)
        log.insert(0)
        log.insert(1)
        assert lock_ids(log) == [0, 1]


class TestComparisonCounting:
    def test_hashed_buckets_reduce_comparisons(self):
        """The paper's optimization: hashing an incoming lock into a bucket
        reduces sorted-insertion comparisons versus one flat list."""
        ids = list(range(0, 256, 3))
        flat = LockLog(num_locks=256, num_buckets=1)
        hashed = LockLog(num_locks=256, num_buckets=32)
        # insert in an order adversarial for a flat sorted list
        for lock_id in reversed(ids):
            flat.insert(lock_id)
        for lock_id in reversed(ids):
            hashed.insert(lock_id)
        assert lock_ids(flat) == lock_ids(hashed)
        assert hashed.comparisons < flat.comparisons

    def test_single_bucket_quadratic_shape(self):
        log = LockLog(num_locks=64, num_buckets=1)
        for lock_id in range(20):
            log.insert(lock_id)
        # ascending inserts into a sorted list compare against every element
        assert log.comparisons == sum(range(20))


@given(
    st.lists(
        st.tuples(st.integers(0, 255), st.booleans(), st.booleans()),
        max_size=100,
    ),
    st.integers(1, 64),
)
def test_sorted_order_and_merge_invariants(ops, num_buckets):
    """Property: iteration is strictly ascending; bits are OR-merged."""
    log = LockLog(num_locks=256, num_buckets=num_buckets)
    expected = {}
    for lock_id, write, read in ops:
        log.insert(lock_id, write=write, read=read)
        prev_write, prev_read = expected.get(lock_id, (False, False))
        expected[lock_id] = (prev_write or write, prev_read or read)
    ids = lock_ids(log)
    assert ids == sorted(expected)
    for entry in log:
        want_write, want_read = expected[entry.lock_id]
        assert entry.write == want_write
        assert entry.read == want_read


class _InsertionSortLog:
    """Reference: the lock log as a linear insertion sort over eagerly
    built buckets, counting one comparison per scanned entry."""

    def __init__(self, num_locks, num_buckets):
        self.num_locks = num_locks
        self.num_buckets = min(num_buckets, num_locks)
        self.buckets = [[] for _ in range(self.num_buckets)]
        self.bits = {}
        self.comparisons = 0

    def insert(self, lock_id, write=False, read=False):
        if lock_id in self.bits:
            old_write, old_read = self.bits[lock_id]
            self.bits[lock_id] = (old_write or write, old_read or read)
            return
        self.bits[lock_id] = (write, read)
        bucket = self.buckets[lock_id * self.num_buckets // self.num_locks]
        position = len(bucket)
        for i, existing in enumerate(bucket):
            self.comparisons += 1
            if existing > lock_id:
                position = i
                break
        bucket.insert(position, lock_id)

    def clear(self):
        for bucket in self.buckets:
            bucket.clear()
        self.bits.clear()

    def entries(self):
        return [(lock_id,) + self.bits[lock_id]
                for bucket in self.buckets for lock_id in bucket]


@given(
    st.integers(1, 300).flatmap(lambda num_locks: st.tuples(
        st.just(num_locks),
        st.integers(1, 40),
        st.lists(
            st.one_of(
                st.tuples(st.integers(0, num_locks - 1), st.booleans(),
                          st.booleans()),
                st.just("clear"),
            ),
            max_size=120,
        ),
    ))
)
def test_matches_the_insertion_sort_reference(case):
    """Property: lazily made buckets and bisection give exactly the eager
    insertion sort's iteration, merged bits and comparison count, across
    transaction boundaries (``clear``) too."""
    num_locks, num_buckets, ops = case
    log = LockLog(num_locks=num_locks, num_buckets=num_buckets)
    reference = _InsertionSortLog(num_locks, num_buckets)
    for op in ops:
        if op == "clear":
            log.clear()
            reference.clear()
        else:
            lock_id, write, read = op
            log.insert(lock_id, write=write, read=read)
            reference.insert(lock_id, write=write, read=read)
        assert [(e.lock_id, e.write, e.read) for e in log] == reference.entries()
        assert log.comparisons == reference.comparisons
        assert len(log) == len(reference.bits)


def test_logs_sharing_a_tally_sum_their_comparisons():
    tally = ComparisonTally()
    first = LockLog(num_locks=64, num_buckets=1, tally=tally)
    second = LockLog(num_locks=64, num_buckets=1, tally=tally)
    for lock_id in range(5):
        first.insert(lock_id)
        second.insert(lock_id)
    assert tally.comparisons == 2 * sum(range(5))
