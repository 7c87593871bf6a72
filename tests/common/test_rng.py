"""Deterministic RNG tests."""

from hypothesis import given, strategies as st

from repro.common.rng import Xorshift32, thread_seed


class TestXorshift:
    def test_deterministic(self):
        a = Xorshift32(123)
        b = Xorshift32(123)
        assert [a.next_u32() for _ in range(10)] == [b.next_u32() for _ in range(10)]

    def test_zero_seed_remapped(self):
        rng = Xorshift32(0)
        assert rng.state != 0
        assert rng.next_u32() != 0

    def test_randrange_bounds(self):
        rng = Xorshift32(7)
        for _ in range(1000):
            assert 0 <= rng.randrange(17) < 17

    def test_randrange_rejects_nonpositive(self):
        rng = Xorshift32(7)
        try:
            rng.randrange(0)
        except ValueError:
            pass
        else:
            raise AssertionError("expected ValueError")

    def test_reasonable_spread(self):
        rng = Xorshift32(99)
        buckets = [0] * 8
        for _ in range(8000):
            buckets[rng.randrange(8)] += 1
        assert min(buckets) > 800  # roughly uniform


@given(st.integers(0, 2**32 - 1))
def test_state_stays_32bit_and_nonzero(seed):
    rng = Xorshift32(seed)
    for _ in range(20):
        value = rng.next_u32()
        assert 0 <= value < 2**32
        assert rng.state != 0


@given(st.integers(0, 2**20), st.integers(0, 2**20))
def test_thread_seeds_distinct_for_neighbors(base, tid):
    assert thread_seed(base, tid) != thread_seed(base, tid + 1)
