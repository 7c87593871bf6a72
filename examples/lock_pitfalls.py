"""The GPU locking pitfalls of the paper's section 2.2 — demonstrated live.

Three lock schemes (Algorithm 1) on a lockstep SIMT simulator:

1. spinlock + reconvergence  -> intra-warp DEADLOCK (watchdog catches it)
2. intra-warp serialization  -> correct but serial
3. divergent retry           -> correct for one lock; LIVELOCK on crossed
                                multi-lock orders
4. the fix                   -> GPU-STM's encounter-time lock-sorting
                                commits the same crossed workload

Run:  python examples/lock_pitfalls.py
"""

from repro.gpu import Device, ProgressError
from repro.gpu import locks
from repro.gpu.config import GpuConfig
from repro.stm import StmConfig, make_runtime, run_transaction


def tiny_device(max_steps=30_000):
    return GpuConfig(warp_size=2, num_sms=1, max_steps=max_steps)


def increment_body(counter):
    def body(tc):
        value = tc.gread(counter)
        yield
        tc.gwrite(counter, value + 1)
        yield

    return body


def demo_scheme1():
    device = Device(tiny_device())
    lock = device.mem.alloc(1)
    counter = device.mem.alloc(1)

    def kernel(tc, lock):
        yield from locks.scheme1_section(tc, lock, increment_body(counter))

    try:
        device.launch(kernel, 1, 2, args=(lock,))
        print("scheme #1 (spinlock):        finished (unexpected!)")
    except ProgressError:
        print(
            "scheme #1 (spinlock):        DEADLOCK — the winner stalls at "
            "reconvergence while its warp-mate spins forever"
        )


def demo_scheme2():
    device = Device(tiny_device(200_000))
    lock = device.mem.alloc(1)
    counter = device.mem.alloc(1)

    def kernel(tc, lock):
        yield from locks.scheme2_section(tc, lock, increment_body(counter))

    device.launch(kernel, 2, 4, args=(lock,))
    print(
        "scheme #2 (serialization):   correct, counter=%d — but one lane "
        "at a time" % device.mem.read(counter)
    )


def demo_scheme3_one_lock():
    device = Device(tiny_device(200_000))
    lock = device.mem.alloc(1)
    counter = device.mem.alloc(1)

    def kernel(tc, lock):
        yield from locks.scheme3_section(tc, lock, increment_body(counter))

    device.launch(kernel, 2, 4, args=(lock,))
    print(
        "scheme #3 (divergent):       correct with one lock, counter=%d — "
        "losers retry while the winner runs" % device.mem.read(counter)
    )


def demo_scheme3_livelock():
    device = Device(tiny_device())
    lock_base = device.mem.alloc(2)

    def kernel(tc, lock_base):
        order = [lock_base, lock_base + 1]
        if tc.lane_id == 1:
            order.reverse()
        yield from locks.scheme3_multi_acquire(tc, order)

    try:
        device.launch(kernel, 1, 2, args=(lock_base,))
        print("scheme #3 (divergent):       finished (unexpected!)")
    except ProgressError:
        print(
            "scheme #3 (divergent):       LIVELOCK — crossed lock orders in "
            "lockstep fail, release and retry in perfect symmetry"
        )


def demo_lock_sorting_fix():
    device = Device(tiny_device(200_000))
    data = device.mem.alloc(2)
    runtime = make_runtime(
        "hv-sorting", device, StmConfig(num_locks=8, shared_data_size=2)
    )

    def kernel(tc):
        first, second = (data, data + 1) if tc.lane_id == 0 else (data + 1, data)

        def body(stm):
            a = yield from stm.tx_read(first)
            if not stm.is_opaque:
                return False
            b = yield from stm.tx_read(second)
            if not stm.is_opaque:
                return False
            yield from stm.tx_write(first, a + 1)
            yield from stm.tx_write(second, b + 1)
            return True

        yield from run_transaction(tc, body)

    device.launch(kernel, 1, 2, attach=runtime.attach)
    print(
        "GPU-STM lock-sorting:        SAME crossed workload commits — "
        "%d commits, values %d/%d"
        % (
            runtime.stats["commits"],
            device.mem.read(data),
            device.mem.read(data + 1),
        )
    )


def main():
    demo_scheme1()
    demo_scheme2()
    demo_scheme3_one_lock()
    demo_scheme3_livelock()
    demo_lock_sorting_fix()


if __name__ == "__main__":
    main()
