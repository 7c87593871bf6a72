"""Bloom filter: no false negatives, useful selectivity, reset semantics."""

from hypothesis import given, strategies as st

from repro.stm.bloom import BloomFilter


class TestBasics:
    def test_empty_contains_nothing(self):
        bloom = BloomFilter()
        assert not bloom.might_contain(42)
        assert bloom.word == 0

    def test_added_key_found(self):
        bloom = BloomFilter()
        bloom.add(42)
        assert bloom.might_contain(42)
        assert bloom.word != 0

    def test_clear_resets(self):
        bloom = BloomFilter()
        bloom.add(1)
        bloom.clear()
        assert not bloom.might_contain(1)

    def test_invalid_params_rejected(self):
        for bits, hashes in [(0, 2), (8, 0)]:
            try:
                BloomFilter(bits=bits, num_hashes=hashes)
            except ValueError:
                pass
            else:
                raise AssertionError("expected ValueError")

    def test_selectivity_when_sparse(self):
        """A sparsely filled filter rejects most absent keys."""
        bloom = BloomFilter(bits=256, num_hashes=2)
        for key in range(8):
            bloom.add(key)
        false_positives = sum(
            1 for key in range(1000, 2000) if bloom.might_contain(key)
        )
        assert false_positives < 100  # < 10% on 1000 probes


@given(st.sets(st.integers(0, 2**32 - 1), max_size=64), st.integers(0, 2**32 - 1))
def test_no_false_negatives(keys, probe):
    bloom = BloomFilter(bits=64, num_hashes=2)
    for key in keys:
        bloom.add(key)
    for key in keys:
        assert bloom.might_contain(key)
    if probe in keys:
        assert bloom.might_contain(probe)


@given(st.sets(st.integers(0, 10**6), min_size=1, max_size=40))
def test_clear_then_repopulate(keys):
    bloom = BloomFilter()
    for key in keys:
        bloom.add(key)
    bloom.clear()
    assert bloom.word == 0
    sample = next(iter(keys))
    bloom.add(sample)
    assert bloom.might_contain(sample)
