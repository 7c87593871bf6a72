"""Deterministic per-thread random number generation.

GPU kernels in the paper's micro-benchmarks (random array, hashtable,
EigenBench) generate random addresses on-device.  We mirror that with a tiny
xorshift generator so every simulation is reproducible: a given
(seed, thread id) pair always yields the same access stream, independent of
Python's global RNG state.
"""

_MASK32 = 0xFFFFFFFF


class Xorshift32:
    """Marsaglia xorshift32 PRNG with a 32-bit state.

    The zero state is a fixed point of the xorshift transition, so seeds are
    remapped to avoid it.
    """

    __slots__ = ("state",)

    def __init__(self, seed):
        seed &= _MASK32
        if seed == 0:
            seed = 0x9E3779B9
        self.state = seed

    def next_u32(self):
        """Advance the generator and return a uniform 32-bit integer."""
        x = self.state
        x ^= (x << 13) & _MASK32
        x ^= x >> 17
        x ^= (x << 5) & _MASK32
        self.state = x
        return x

    def randrange(self, n):
        """Return a uniform integer in [0, n)."""
        if n <= 0:
            raise ValueError("randrange bound must be positive")
        return self.next_u32() % n


def thread_seed(base_seed, tid):
    """Stable per-thread seed derivation used by all workloads."""
    return ((base_seed * 0x9E3779B1) ^ (tid * 0x85EBCA77) ^ 0xDEADBEEF) & _MASK32
