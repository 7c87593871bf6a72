"""Flat word-addressable global memory with CUDA-style atomic primitives.

Addresses are word indices into one device-wide array, matching the paper's
porting strategy for the STAMP workloads ("data structures ... replaced with
arrays").  Regions handed out by :meth:`GlobalMemory.alloc` are contiguous
and named, which the tests use for bounds diagnostics and the oracle uses to
snapshot workload state.

The simulator interleaves lanes at warp-step granularity, so these methods
are logically atomic by construction; what makes them "atomics" is that the
cost model charges them as serialized read-modify-write operations.
"""

from repro.gpu.errors import MemoryFault


class Region:
    """A named contiguous allocation: [base, base + size)."""

    __slots__ = ("name", "base", "size")

    def __init__(self, name, base, size):
        self.name = name
        self.base = base
        self.size = size

    @property
    def end(self):
        return self.base + self.size


class GlobalMemory:
    """Device global memory: a growable flat array of Python integers."""

    def __init__(self):
        self.words = []
        self.regions = []

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def alloc(self, size, name="anon", fill=0):
        """Allocate ``size`` words initialized to ``fill``; return the base address."""
        if size < 0:
            raise ValueError("allocation size must be non-negative")
        base = len(self.words)
        self.words.extend([fill] * size)
        self.regions.append(Region(name, base, size))
        return base

    def check(self, addr):
        """Raise :class:`MemoryFault` unless ``addr`` is a valid word address."""
        if not 0 <= addr < len(self.words):
            # no region contains an out-of-bounds address: name the one it
            # overruns (a high address runs past the last allocation)
            if addr < 0:
                overrun = "negative"
            elif self.regions:
                overrun = self.regions[-1].name
            else:
                overrun = None
            raise MemoryFault(
                "address %d out of bounds (device holds %d words, region=%r)"
                % (addr, len(self.words), overrun)
            )

    def snapshot(self, base, size):
        """Copy ``size`` words starting at ``base`` (used by verifiers)."""
        return list(self.words[base : base + size])

    def stats_summary(self):
        """Layout summary for the telemetry layer (gauge material)."""
        return {
            "words": len(self.words),
            "regions": len(self.regions),
            "region_words": {region.name: region.size for region in self.regions},
        }

    # ------------------------------------------------------------------
    # Raw accesses (cost-free; ThreadCtx wraps these with cost accounting)
    # ------------------------------------------------------------------
    def read(self, addr):
        return self.words[addr]

    def write(self, addr, value):
        self.words[addr] = value

    # ------------------------------------------------------------------
    # Atomic primitives (CUDA semantics: return the OLD value)
    # ------------------------------------------------------------------
    def atomic_or(self, addr, value):
        old = self.words[addr]
        self.words[addr] = old | value
        return old

    def atomic_add(self, addr, value):
        old = self.words[addr]
        self.words[addr] = old + value
        return old
