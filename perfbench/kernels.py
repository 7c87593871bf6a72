"""The benchmark's hand-written kernels: one definition of each.

Two families share this file.  The *differential* kernels isolate one
inner cost of a warp step each — the ``layers`` probe times them and
subtracts (spin with one lane vs. 32 lanes, ``tc.work`` vs. spin, a memory
kernel vs. spin, an empty transaction vs. spin) — and the *SIMT* kernels
are the ``simt_core`` workload: plain generator kernels with no STM
attached.  All are ordinary ``kernel(tc, *args)`` generator functions with a
``yield`` after every globally-visible operation.
"""

from repro.stm import run_transaction


# ----------------------------------------------------------------------
# Differential kernels
# ----------------------------------------------------------------------
def zero_iter_kernel(tc):
    """Retires on its first resumption: a launch of it costs block build,
    one issue round and result collection — the per-launch fixed cost."""
    return
    yield  # pragma: no cover - makes this a generator function


def spin_kernel(tc, iters, lanes):
    """Op-less resumptions on the first ``lanes`` lanes of every warp; the
    other lanes retire at once.  ``lanes=1`` leaves issue selection plus
    ``Warp.step`` framing; each further lane adds one generator resume."""
    if tc.lane_id >= lanes:
        return
    for _ in range(iters):
        yield


def work_kernel(tc, iters):
    """One ``tc.work`` per step: spin plus the accounting call."""
    for _ in range(iters):
        tc.work(3)
        yield


def coalesced_read_kernel(tc, base, words, iters):
    """Consecutive lanes read consecutive words: one line per warp step."""
    for i in range(iters):
        tc.gread(base + (tc.tid + i * 32) % words)
        yield


def scattered_read_kernel(tc, base, words, iters, stride):
    """Every lane of a warp step reads a different line (the RA/HT
    pattern): the fold walks 32 distinct lines."""
    for i in range(iters):
        tc.gread(base + (tc.tid * stride + i * 33) % words)
        yield


def same_addr_read_kernel(tc, addr, iters):
    """All lanes poll one L2-cached word: the STM runtimes' spin probe."""
    for _ in range(iters):
        tc.gread_l2(addr)
        yield


def atomic_kernel(tc, base, slots, iters):
    """Atomics that serialize on ``slots`` hot words."""
    for i in range(iters):
        tc.atomic_add(base + (tc.lane_id + i) % slots, 1)
        yield


def tx_kernel(tc, base, words, txs, reads, writes, stride):
    """``txs`` uncontended transactions per thread, each reading ``reads``
    and writing ``writes`` private words (``stride`` words per thread, so no
    two threads share a word or a line).  ``reads=writes=0`` is the empty
    transaction: begin + commit only."""
    mine = base + (tc.tid * stride) % words

    def body(stm):
        for k in range(reads):
            yield from stm.tx_read(mine + k)
            if not stm.is_opaque:
                return False
        for k in range(writes):
            yield from stm.tx_write(mine + k, tc.tid)
        return True

    for _ in range(txs):
        yield from run_transaction(tc, body)


# ----------------------------------------------------------------------
# SIMT kernels (the simt_core workload)
# ----------------------------------------------------------------------
def stream_kernel(tc, base, threads, rows, iters, stride, offset):
    """Read / compute / write down one private column of a ``rows`` x
    ``threads`` array.  ``stride`` (coprime with ``threads``) permutes the
    columns: 1 keeps a warp's lanes on consecutive words, so a step
    coalesces into one or two lines; 37 or more puts every lane on its own
    line.  Columns are private, so the read-modify-write never races."""
    column = base + (tc.tid * stride + offset) % threads
    for i in range(iters):
        addr = column + (i % rows) * threads
        value = tc.gread(addr)
        yield
        tc.work(3)
        yield
        tc.gwrite(addr, value + 1)
        yield


def hot_atomic_kernel(tc, base, slots, iters, offset):
    """Same-address atomics: every lane of a step hits one of ``slots``
    counters, so the atomic group serializes."""
    for i in range(iters):
        tc.atomic_add(base + (i + offset) % slots, 1)
        yield


def divergent_kernel(tc, base, iters, offset):
    """Half the lanes of every warp take a two-step memory path on their
    own word, the other half a one-step compute path, then the warp
    reconverges — two issue groups per step and a parked half-warp every
    iteration."""
    addr = base + tc.tid
    for i in range(iters):
        if (tc.lane_id + offset) & 1:
            value = tc.gread(addr)
            yield
            tc.gwrite(addr, value + 1)
            yield
        else:
            tc.work(5)
            yield
        yield from tc.reconverge(i)


def barrier_kernel(tc, block_threads, iters, offset, out):
    """Shared-memory neighbour exchange under a block-wide barrier; each
    thread stores the sum of what its right neighbour deposited."""
    me = tc.tid % block_threads
    total = 0
    for i in range(iters):
        tc.smem_write(me, tc.tid + i + offset)
        yield
        yield from tc.syncthreads()
        total += tc.smem_read((me + 1) % block_threads)
        yield
        yield from tc.syncthreads()
    tc.gwrite(out + tc.tid, total)
    yield
