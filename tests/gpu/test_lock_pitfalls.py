"""Reproduction of the paper's section 2.2 / Algorithm 1: GPU lock pitfalls.

Scheme #1 deadlocks under SIMT reconvergence, scheme #2 is correct but
serial, scheme #3 is correct for single locks but livelocks on conflicting
multi-lock orders — the exact motivation for GPU-STM's encounter-time
lock-sorting.
"""

import pytest

from repro.gpu import Device, LivelockError, ProgressError
from repro.gpu import locks
from repro.gpu.config import small_config


def increment_body(counter_addr):
    def body(tc):
        value = tc.gread(counter_addr)
        yield
        tc.gwrite(counter_addr, value + 1)
        yield

    return body


class TestScheme1Spinlock:
    def test_deadlocks_with_intra_warp_contention(self):
        dev = Device(small_config(warp_size=2, max_steps=20_000))
        lock = dev.mem.alloc(1)
        counter = dev.mem.alloc(1)

        def kernel(tc, lock):
            yield from locks.scheme1_section(tc, lock, increment_body(counter))

        with pytest.raises(ProgressError) as exc:
            dev.launch(kernel, 1, 2, args=(lock,))
        # the winner lane is *parked* at the reconvergence point, so the
        # watchdog classifies this as suspected deadlock, not livelock
        assert not isinstance(exc.value, LivelockError)

    def test_single_thread_per_warp_is_fine(self):
        """Without intra-warp contention scheme #1 works (locks only race
        across warps, where spinning does not block the winner)."""
        dev = Device(small_config(warp_size=1, max_steps=100_000))
        lock = dev.mem.alloc(1)
        counter = dev.mem.alloc(1)

        def kernel(tc, lock):
            yield from locks.scheme1_section(tc, lock, increment_body(counter))

        dev.launch(kernel, 4, 1, args=(lock,))
        assert dev.mem.read(counter) == 4


class TestScheme2Serialization:
    def test_correct_under_full_warp_contention(self):
        dev = Device(small_config(warp_size=4))
        lock = dev.mem.alloc(1)
        counter = dev.mem.alloc(1)

        def kernel(tc, lock):
            yield from locks.scheme2_section(tc, lock, increment_body(counter))

        dev.launch(kernel, 2, 8, args=(lock,))
        assert dev.mem.read(counter) == 16

    def test_slower_than_scheme3_on_uncontended_locks(self):
        """Scheme #2 serializes even when each lane uses a different lock."""

        def run(scheme_section):
            dev = Device(small_config(warp_size=4))
            lock_base = dev.mem.alloc(8)
            data = dev.mem.alloc(8)

            def kernel(tc, lock_base):
                def body(tc_):
                    tc_.gwrite(data + tc_.tid, 1)
                    yield

                yield from scheme_section(tc, lock_base + tc.tid, body)

            return dev.launch(kernel, 1, 8, args=(lock_base,)).cycles

        assert run(locks.scheme2_section) > run(locks.scheme3_section)


class TestScheme3Divergent:
    def test_correct_for_single_lock(self):
        dev = Device(small_config(warp_size=4))
        lock = dev.mem.alloc(1)
        counter = dev.mem.alloc(1)

        def kernel(tc, lock):
            yield from locks.scheme3_section(tc, lock, increment_body(counter))

        dev.launch(kernel, 4, 8, args=(lock,))
        assert dev.mem.read(counter) == 32

    def test_livelocks_on_reversed_two_lock_orders(self):
        """The canonical section 2.2 scenario: two lanes of one warp acquire
        two locks in reverse orders and loop forever in lockstep."""
        dev = Device(small_config(warp_size=2, max_steps=20_000))
        lock_base = dev.mem.alloc(2)

        def kernel(tc, lock_base):
            if tc.lane_id == 0:
                order = [lock_base, lock_base + 1]
            else:
                order = [lock_base + 1, lock_base]
            yield from locks.scheme3_multi_acquire(tc, order)

        # both lanes keep stepping forever: the classified form of the trip
        with pytest.raises(LivelockError):
            dev.launch(kernel, 1, 2, args=(lock_base,))

    def test_no_livelock_when_orders_agree(self):
        """Sorting the acquisition order is exactly what rescues scheme #3 —
        the seed of the paper's encounter-time lock-sorting."""
        dev = Device(small_config(warp_size=2, max_steps=100_000))
        lock_base = dev.mem.alloc(2)
        done = []

        def kernel(tc, lock_base):
            order = [lock_base, lock_base + 1]  # same (sorted) order everywhere
            rounds = yield from locks.scheme3_multi_acquire(tc, order)
            # release so the other lane can finish
            for addr in order:
                tc.gwrite(addr, 0)
                yield
            done.append((tc.lane_id, rounds))

        dev.launch(kernel, 1, 2, args=(lock_base,))
        assert len(done) == 2


class TestTryAcquireRelease:
    def test_release_frees_lock(self):
        dev = Device(small_config(warp_size=1))
        lock = dev.mem.alloc(1, fill=1)

        def kernel(tc, lock):
            yield from locks.release(tc, lock)

        dev.launch(kernel, 1, 1, args=(lock,))
        assert dev.mem.read(lock) == 0
