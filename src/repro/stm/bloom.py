"""Per-transaction Bloom filter over write-set addresses.

Algorithm 3 line 22 checks "has this transaction written to ``addr``?" on
every transactional read; the paper compresses the write-set with a Bloom
filter so the common miss is answered without scanning the log.  The filter
is thread-local metadata, so membership tests cost only local cycles.
"""

#: Filter width: one 64-bit word per transaction.
BLOOM_BITS = 64

_MIX1 = 0x9E3779B1
_MIX2 = 0x85EBCA77


class BloomFilter:
    """A fixed-width Bloom filter with ``num_hashes`` probes per key."""

    __slots__ = ("bits", "num_hashes", "word")

    def __init__(self, bits=BLOOM_BITS, num_hashes=2):
        if bits < 1:
            raise ValueError("bits must be >= 1")
        if num_hashes < 1:
            raise ValueError("num_hashes must be >= 1")
        self.bits = bits
        self.num_hashes = num_hashes
        self.word = 0

    def _mask(self, key):
        """OR of the probe bits of ``key`` (double hashing: probe *i* is
        ``(h1 + i*h2) % bits``).  A plain int, so membership is one AND."""
        h1 = (key * _MIX1) & 0xFFFFFFFF
        h2 = ((key ^ (key >> 7)) * _MIX2) & 0xFFFFFFFF | 1
        bits = self.bits
        mask = 1 << h1 % bits
        for i in range(1, self.num_hashes):
            mask |= 1 << ((h1 + i * h2) & 0xFFFFFFFF) % bits
        return mask

    def add(self, key):
        """Insert ``key``."""
        self.word |= self._mask(key)

    def might_contain(self, key):
        """False means definitely absent; True means possibly present."""
        mask = self._mask(key)
        return self.word & mask == mask

    def clear(self):
        """Reset to empty (transaction begin)."""
        self.word = 0
