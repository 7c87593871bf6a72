"""Transactional read- and write-sets with coalesced warp organization.

Functionally a read-set is an append-only log of (address, observed value)
pairs and a write-set is a last-writer-wins map — exactly Algorithm 3's
``reads`` and ``writes``.

The paper's twist (section 3.1, "coalesced read-/write-set organization") is
in where the logs *live*: the sets of all transactions in a warp are merged
so that entry *i* of the merged log belongs to lane ``i mod warp_size``, and
a warp-wide append lands in consecutive global-memory words — one coalesced
memory transaction instead of ``warp_size`` scattered ones.  The simulator
models that through the cost charged per append: cheap, cache-friendly
cycles under the coalesced layout, a full scattered memory transaction per
lane otherwise (the ablation benchmark flips this switch).
"""

from repro.gpu.events import Phase


class LogCosting:
    """Cost policy for read-/write-set bookkeeping (coalesced or scattered)."""

    __slots__ = ("coalesced",)

    def __init__(self, coalesced):
        self.coalesced = coalesced

    def charge_append(self, tc, phase=Phase.BUFFERING):
        """Charge one log append on thread ``tc``."""
        if self.coalesced:
            tc.local_op(phase)
        else:
            tc.scattered_meta_ops(1, phase)


class ReadSet:
    """Append-only log of (address, value) pairs observed by a transaction."""

    __slots__ = ("entries", "_costing")

    def __init__(self, costing):
        self.entries = []
        self._costing = costing

    def append(self, tc, addr, value, phase=Phase.BUFFERING):
        """Log a transactional read (Algorithm 3 line 25)."""
        self.entries.append((addr, value))
        self._costing.charge_append(tc, phase)

    def clear(self):
        self.entries.clear()

    def __iter__(self):
        return iter(self.entries)


class WriteSet:
    """Last-writer-wins buffer of speculative writes."""

    __slots__ = ("values", "_costing")

    def __init__(self, costing):
        self.values = {}
        self._costing = costing

    def put(self, tc, addr, value, phase=Phase.BUFFERING):
        """Buffer a transactional write (Algorithm 3 line 37)."""
        self.values[addr] = value
        self._costing.charge_append(tc, phase)

    def get(self, addr):
        """Value previously written to ``addr`` by this transaction, or None.

        Callers must have consulted the Bloom filter / ``addr in ws`` first;
        a read hit also costs a (cheap) log access, charged by the caller.
        """
        return self.values.get(addr)

    def clear(self):
        self.values.clear()

    def __contains__(self, addr):
        return addr in self.values

    def __len__(self):
        return len(self.values)

    def items(self):
        return self.values.items()
