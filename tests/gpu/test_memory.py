"""Unit tests for the global memory model and atomic primitives."""

import pytest
from hypothesis import given, strategies as st

from repro.gpu import Device
from repro.gpu.config import small_config
from repro.gpu.errors import MemoryFault
from repro.gpu.memory import GlobalMemory


class TestAlloc:
    def test_alloc_returns_consecutive_bases(self):
        mem = GlobalMemory()
        a = mem.alloc(10, "a")
        b = mem.alloc(5, "b")
        assert a == 0
        assert b == 10
        assert len(mem.words) == 15

    def test_alloc_fill_value(self):
        mem = GlobalMemory()
        base = mem.alloc(4, fill=7)
        assert mem.snapshot(base, 4) == [7, 7, 7, 7]

    def test_alloc_zero_size(self):
        mem = GlobalMemory()
        base = mem.alloc(0, "empty")
        assert base == 0
        assert len(mem.words) == 0

    def test_alloc_negative_size_rejected(self):
        mem = GlobalMemory()
        with pytest.raises(ValueError):
            mem.alloc(-1)


class TestReadWrite:
    def test_read_after_write(self):
        mem = GlobalMemory()
        base = mem.alloc(4)
        mem.write(base + 2, 42)
        assert mem.read(base + 2) == 42

    def test_check_out_of_bounds(self):
        mem = GlobalMemory()
        mem.alloc(4)
        with pytest.raises(MemoryFault):
            mem.check(4)
        with pytest.raises(MemoryFault):
            mem.check(-1)
        mem.check(3)  # in bounds: no raise

    def test_check_names_the_overrun_region(self):
        mem = GlobalMemory()
        mem.alloc(4, "data")
        with pytest.raises(MemoryFault, match="region='data'"):
            mem.check(4)
        with pytest.raises(MemoryFault, match="region='negative'"):
            mem.check(-1)

    def test_snapshot_copies(self):
        mem = GlobalMemory()
        base = mem.alloc(3, fill=1)
        snap = mem.snapshot(base, 3)
        mem.write(base, 99)
        assert snap == [1, 1, 1]


def _one_lane(fill, op):
    """``(returned, word after)`` of ``op(tc, addr)`` run by one lane over
    a word holding ``fill``.  CAS and increment live on the thread context
    only: it inlines the swap and increments through ``atomic_add``."""
    dev = Device(small_config(warp_size=1))
    addr = dev.mem.alloc(1, fill=fill)
    returned = []

    def kernel(tc):
        returned.append(op(tc, addr))
        yield

    dev.launch(kernel, 1, 1)
    return returned[0], dev.mem.read(addr)


class TestAtomics:
    def test_cas_success_returns_old(self):
        assert _one_lane(0, lambda tc, a: tc.atomic_cas(a, 0, 5)) == (0, 5)

    def test_cas_failure_leaves_value(self):
        assert _one_lane(3, lambda tc, a: tc.atomic_cas(a, 0, 5)) == (3, 3)

    def test_atomic_or_sets_bits(self):
        mem = GlobalMemory()
        a = mem.alloc(1, fill=0b0100)
        old = mem.atomic_or(a, 0b0011)
        assert old == 0b0100
        assert mem.read(a) == 0b0111

    def test_atomic_inc_returns_old(self):
        assert _one_lane(9, lambda tc, a: tc.atomic_inc(a)) == (9, 10)

    def test_atomic_add(self):
        mem = GlobalMemory()
        a = mem.alloc(1, fill=10)
        assert mem.atomic_add(a, 5) == 10
        assert mem.read(a) == 15


@given(st.lists(st.tuples(st.integers(0, 15), st.integers(0, 2**32 - 1)), max_size=50))
def test_memory_is_a_word_store(ops):
    """Property: memory behaves exactly like a dict of last-written values."""
    mem = GlobalMemory()
    base = mem.alloc(16)
    model = {addr: 0 for addr in range(16)}
    for addr, value in ops:
        mem.write(base + addr, value)
        model[addr] = value
    for addr in range(16):
        assert mem.read(base + addr) == model[addr]


@given(
    st.integers(0, 2**16),
    st.lists(st.sampled_from(["or", "add"]), max_size=30),
    st.integers(1, 255),
)
def test_atomics_return_pre_state(initial, ops, operand):
    """Property: every atomic returns the value observed immediately before it."""
    mem = GlobalMemory()
    a = mem.alloc(1, fill=initial)
    for op in ops:
        before = mem.read(a)
        if op == "or":
            returned = mem.atomic_or(a, operand)
        else:
            returned = mem.atomic_add(a, operand)
        assert returned == before
