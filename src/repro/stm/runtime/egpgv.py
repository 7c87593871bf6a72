"""STM-EGPGV: the blocking, per-thread-*block* STM baseline
(Cederman, Tsigas & Chaudhry, EGPGV 2010; paper sections 4.2 and 5).

The defining limitation: transactions execute at thread-block granularity,
not per thread.  We model that by serializing transactional execution within
each block — at any instant at most one logical transaction per block is
live, so device-wide transaction concurrency equals the number of blocks,
which is why Figure 2 shows STM-EGPGV constrained and Figure 3 shows it
flat.

The protocol itself is a blocking two-phase-locking STM: stripes are locked
at *encounter* time (reads and writes) and held to commit; writes are
buffered and applied under the locks.  Conflicting acquisitions spin briefly
and then abort-and-retry, so crossed orders across blocks cannot deadlock.

Its metadata is statically sized (the original allocates fixed per-block
logs at startup): launches with more blocks than ``max_blocks``, blocks
wider than ``max_threads_per_block``, or transactions touching more than
``max_accesses`` stripes raise :class:`EgpgvCapacityError` — reproducing the
paper's note that "STM-EGPGV crashes at relatively small numbers of threads
because it does not support per-thread transactions".
"""

from repro.common.rng import Xorshift32, thread_seed
from repro.gpu.events import Phase
from repro.gpu.steppers import PollUntil
from repro.stm.clock import GlobalClock
from repro.stm.errors import EgpgvCapacityError
from repro.stm.runtime.base import TmRuntime, TxThread
from repro.stm.rwset import LogCosting, ReadSet, WriteSet
from repro.stm.versionlock import GlobalLockTable


class EgpgvRuntime(TmRuntime):
    """Runtime of the per-thread-block blocking STM."""

    name = "egpgv"
    per_thread_transactions = False

    def __init__(
        self,
        device,
        num_locks=1024,
        max_blocks=64,
        max_threads_per_block=128,
        max_accesses=256,
        max_lock_attempts=64,
        object_overhead=120,
        coalesced_logs=True,
        record_history=False,
    ):
        super().__init__(device, record_history)
        self.lock_table = GlobalLockTable(device.mem, num_locks, name="egpgv_locks")
        self.clock = GlobalClock(device.mem, name="egpgv_clock")
        # One device-resident slot flag per block: lanes waiting for their
        # block's transaction slot poll it in global memory, paying real
        # traffic for the serialization (this is what makes EGPGV's limited
        # concurrency show up as limited performance).
        self.block_flags = device.mem.alloc(max_blocks, "egpgv_block_flags")
        self.max_blocks = max_blocks
        self.max_threads_per_block = max_threads_per_block
        self.max_accesses = max_accesses
        self.max_lock_attempts = max_lock_attempts
        # Cederman's STM is object-based: opening an object copies it and
        # registers it with the block-wide transaction descriptor.  This
        # models that fixed management cost at begin and commit.
        self.object_overhead = object_overhead
        self.coalesced_logs = coalesced_logs

    def attach(self, tc):
        if tc.block.index >= self.max_blocks:
            raise EgpgvCapacityError(
                "launch uses block %d but STM-EGPGV metadata is statically "
                "sized for %d blocks" % (tc.block.index, self.max_blocks)
            )
        if tc.block.block_threads > self.max_threads_per_block:
            raise EgpgvCapacityError(
                "block width %d exceeds STM-EGPGV's static per-block "
                "capacity of %d threads"
                % (tc.block.block_threads, self.max_threads_per_block)
            )
        tc.stm = self.make_thread(tc)
        self.threads.append(tc.stm)

    def make_thread(self, tc):
        return EgpgvTx(self, tc)

    def metric_gauges(self):
        gauges = super().metric_gauges()
        gauges["clock"] = self.clock.peek(self.mem)
        gauges["max_blocks"] = self.max_blocks
        gauges["max_threads_per_block"] = self.max_threads_per_block
        gauges["max_accesses"] = self.max_accesses
        for key, value in self.lock_table.metrics_summary().items():
            gauges["lock_table.%s" % key] = value
        return gauges


class EgpgvTx(TxThread):
    """One logical transaction, serialized with its block-mates."""

    _QUEUE_KEY = "egpgv_block_queue"

    def __init__(self, runtime, tc):
        super().__init__(runtime, tc)
        costing = LogCosting(coalesced=runtime.coalesced_logs)
        self.reads = ReadSet(costing)
        self.writes = WriteSet(costing)
        self._held = set()
        self._queued = False
        # Cederman's blocking STM retries conflicts under randomized
        # exponential backoff; we use a deterministic per-thread stream so
        # simulations stay reproducible while symmetric cross-block retry
        # patterns still break up.
        self._backoff_rng = Xorshift32(thread_seed(0xE69, tc.tid))
        self._consecutive_aborts = 0
        self._slot_wait = PollUntil(tc)

    def read_entries(self):
        return self.reads.entries

    def write_entries(self):
        return self.writes.values

    # ------------------------------------------------------------------
    def tx_begin(self):
        """Wait for the block's transaction slot, then start."""
        tc = self.tc
        runtime = self.runtime
        tc.tx_window_begin()
        self.reads.clear()
        self.writes.clear()
        self._held.clear()
        self.is_opaque = True
        runtime.stats.add("begins")
        if self._consecutive_aborts:
            exponent = min(self._consecutive_aborts, 6)
            delay = self._backoff_rng.randrange(1 << exponent) + 1
            for _ in range(delay):
                tc.work(1, Phase.INIT)
                yield
        if not self._queued:
            queue = tc.block.shared.setdefault(self._QUEUE_KEY, [])
            queue.append(tc.tid)
            self._queued = True
        queue = tc.block.shared[self._QUEUE_KEY]
        if queue[0] != tc.tid:
            # poll the block's slot flag while block-mates transact
            yield self._slot_wait.arm(
                queue, tc.tid, runtime.block_flags + tc.block.index, Phase.INIT
            )
        tc.work(runtime.object_overhead, Phase.INIT)
        yield
        tc.local_op(Phase.INIT, count=2)

    def _check_capacity(self):
        if len(self._held) > self.runtime.max_accesses:
            raise EgpgvCapacityError(
                "transaction touched %d stripes; STM-EGPGV's static logs "
                "hold %d" % (len(self._held), self.runtime.max_accesses)
            )

    def _acquire(self, addr):
        """Encounter-time blocking acquisition of the stripe lock."""
        tc = self.tc
        runtime = self.runtime
        lock_id = runtime.lock_table.index_of(addr)
        if lock_id in self._held:
            return True
        lock_addr = runtime.lock_table.lock_addr(lock_id)
        attempts = 0
        while True:
            observed = tc.atomic_cas(lock_addr, 0, 1, Phase.LOCKS)
            yield
            if observed == 0:
                self._held.add(lock_id)
                self._check_capacity()
                return True
            runtime.stats.add("lock_acquire_failures")
            attempts += 1
            if attempts >= runtime.max_lock_attempts:
                return False

    def tx_read(self, addr):
        tc = self.tc
        runtime = self.runtime
        runtime.stats.add("tx_reads")
        if addr in self.writes:
            tc.local_op(Phase.BUFFERING)
            return self.writes.get(addr)
        acquired = yield from self._acquire(addr)
        if not acquired:
            self.is_opaque = False  # blocked too long: abort-and-retry
            return 0
        value = tc.gread(addr, Phase.NATIVE)
        yield
        self._note_real_read(addr)
        self.reads.append(tc, addr, value, Phase.BUFFERING)
        return value

    def tx_write(self, addr, value):
        tc = self.tc
        runtime = self.runtime
        runtime.stats.add("tx_writes")
        acquired = yield from self._acquire(addr)
        if not acquired:
            self.is_opaque = False
            return
        self.writes.put(tc, addr, value, Phase.BUFFERING)

    def _release_all(self):
        tc = self.tc
        lock_table = self.runtime.lock_table
        for lock_id in self._held:
            tc.gwrite(lock_table.lock_addr(lock_id), 0, Phase.LOCKS)
            yield
        self._held.clear()

    def _leave_queue(self):
        queue = self.tc.block.shared[self._QUEUE_KEY]
        queue.pop(0)
        self._queued = False

    def tx_commit(self):
        tc = self.tc
        runtime = self.runtime
        tc.work(runtime.object_overhead, Phase.COMMIT)
        yield
        tc.fence(Phase.COMMIT)
        yield
        for addr, value in self.writes.items():
            tc.gwrite(addr, value, Phase.COMMIT)
            yield
        tc.fence(Phase.COMMIT)
        yield
        version = tc.atomic_inc(runtime.clock.addr, Phase.COMMIT) + 1
        yield
        yield from self._release_all()
        self._leave_queue()
        self._consecutive_aborts = 0
        runtime.note_commit(self, version=version)
        tc.tx_window_commit()
        return True

    def tx_abort(self):
        runtime = self.runtime
        yield from self._release_all()
        self._leave_queue()
        self._consecutive_aborts += 1
        runtime.note_abort("blocking_conflict", tx=self)
        self.tc.tx_window_abort()
        self.is_opaque = True
