"""The GPU lock schemes of the paper's Algorithm 1.

These helpers reproduce the three spinlock construction schemes whose
pitfalls motivate GPU-STM (paper section 2.2):

* **Scheme #1** — plain spinning on a CAS.  Combined with SIMT
  reconvergence, the winner of the lock waits for the spinning losers of its
  own warp and the warp deadlocks (``scheme1_section`` + watchdog).
* **Scheme #2** — serialization within each warp: lanes take turns through
  the critical section, trading the deadlock for very low SIMD utilization.
* **Scheme #3** — diverging on locking failure: correct for one lock per
  thread, but livelocks when lanes of one warp acquire multiple locks in
  conflicting orders (shown by ``tests/gpu/test_lock_pitfalls.py``).

All helpers are generators and must be driven with ``yield from``.  Locks are
single memory words: 0 = free, 1 = held.
"""

from repro.gpu.events import Phase


def divergent_acquire(tc, lock_addr, phase=Phase.NATIVE):
    """Scheme #3 acquisition: retry the CAS, diverging on failure."""
    while True:
        old = tc.atomic_cas(lock_addr, 0, 1, phase)
        yield
        if old == 0:
            return


def release(tc, lock_addr, phase=Phase.NATIVE):
    """Release a spinlock (plain store, like Algorithm 1 line 4)."""
    tc.gwrite(lock_addr, 0, phase)
    yield


def scheme1_section(tc, lock_addr, body):
    """Scheme #1: spin for the lock, then *reconverge* before the critical
    section — the hardware-faithful rendering that deadlocks when two lanes
    of one warp compete, because the winner waits for reconvergence while the
    loser spins forever.

    ``body(tc)`` is a generator run inside the critical section.
    """
    while True:
        old = tc.atomic_cas(lock_addr, 0, 1)
        yield
        if old == 0:
            break
    # SIMT reconvergence after the divergent spin loop: the winner stalls
    # here until every live lane of the warp arrives.
    yield from tc.reconverge(("scheme1", lock_addr))
    yield from body(tc)
    yield from release(tc, lock_addr)


def scheme2_section(tc, lock_addr, body):
    """Scheme #2: serialize the critical section within the warp.

    Every lane walks the same ``warp_size`` iterations in lockstep; in
    iteration ``i`` only lane ``i`` takes the lock and runs ``body``, the
    other lanes idle to the per-iteration reconvergence point.  Correct, but
    utilization collapses to one lane.
    """
    warp_size = tc.config.warp_size
    for turn in range(warp_size):
        if tc.lane_id % warp_size == turn:
            yield from divergent_acquire(tc, lock_addr)
            yield from body(tc)
            yield from release(tc, lock_addr)
        # Label by turn only: lanes may be serializing on *different* locks
        # and still reconverge together each iteration.
        yield from tc.reconverge(("scheme2", turn))


def scheme3_section(tc, lock_addr, body):
    """Scheme #3: diverge on locking failure (Algorithm 1 lines 11-16).

    Safe for a single lock per critical section; the basis of the CGL
    baseline.
    """
    done = False
    while not done:
        old = tc.atomic_cas(lock_addr, 0, 1)
        yield
        if old == 0:
            yield from body(tc)
            yield from release(tc, lock_addr)
            done = True


def scheme3_multi_acquire(tc, lock_addrs, on_failure_release=True):
    """Scheme #3 generalized to multiple locks, as a livelock exhibit.

    Tries to grab every lock in ``lock_addrs`` order; on failure releases
    what it holds and retries — which livelocks under lockstep execution when
    two lanes of a warp use reversed orders (paper section 2.2).  Returns the
    number of acquisition rounds on success.
    """
    rounds = 0
    while True:
        rounds += 1
        held = []
        failed = False
        for lock_addr in lock_addrs:
            old = tc.atomic_cas(lock_addr, 0, 1)
            yield
            if old == 0:
                held.append(lock_addr)
            else:
                failed = True
                break
        if not failed:
            return rounds
        if on_failure_release:
            for lock_addr in held:
                tc.gwrite(lock_addr, 0)
                yield
