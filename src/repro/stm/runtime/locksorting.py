"""The GPU-STM core: Algorithm 3 of the paper.

This module implements the word- and lock-based STM with:

* commit-time locking over an **encounter-time sorted lock-log** (livelock
  freedom under lockstep execution, section 3.1);
* **hierarchical validation** — timestamp-based validation (TBV) against the
  global version locks with value-based validation (VBV) as the fallback
  that filters TBV's false conflicts (``use_vbv=True``, the *STM-HV-Sorting*
  variant), or TBV alone (``use_vbv=False``, *STM-TBV-Sorting*);
* the paper's read barrier with post-validation (Algorithm 3 lines 21-35 and
  6-20), write buffering with a Bloom-filtered write-set (lines 36-38), and
  the full commit protocol ``GetLocksAndTBV`` / ``VBV`` / ``ReleaseLocks`` /
  ``ReleaseAndUpdateLocks`` (lines 43-85);
* locking of **all read and write locations** during commit — the paper
  explains (end of section 3.2.2) that leaving read locations unlocked lets
  two lockstep transactions with crossed read/write sets abort each other
  forever.

All methods are generators; every globally-visible operation is followed by
a ``yield`` (one warp step), so lock acquisitions of lanes in one warp
really do collide in the same step — the behaviour the sorting exists for.
"""

from repro.common.rng import Xorshift32, thread_seed
from repro.gpu.events import Phase
from repro.gpu.steppers import PollL2
from repro.stm.bloom import BloomFilter
from repro.stm.clock import GlobalClock
from repro.stm.locklog import ComparisonTally, EncounterOrderLog, LockLog
from repro.stm.runtime.base import TmRuntime, TxThread
from repro.stm.rwset import LogCosting, ReadSet, WriteSet
from repro.stm.versionlock import GlobalLockTable


class LockSortingTx(TxThread):
    """Per-thread transaction state and barriers of Algorithm 3."""

    def __init__(self, runtime, tc):
        super().__init__(runtime, tc)
        costing = LogCosting(coalesced=runtime.coalesced_logs)
        self.reads = ReadSet(costing)
        self.writes = WriteSet(costing)
        self.bloom = BloomFilter()
        num_locks = runtime.lock_table.num_locks
        if runtime.sort_locks:
            self.locklog = LockLog(num_locks, runtime.lock_log_buckets,
                                   runtime.locklog_tally)
        else:
            self.locklog = EncounterOrderLog(num_locks)
        self.snapshot = 0
        self.pass_tbv = True
        # version-lock words observed when acquiring, for exact release
        self._held = {}
        self._failed_lock = None
        self._backoff_rng = Xorshift32(thread_seed(0x57A, tc.tid))
        self._consecutive_aborts = 0
        # waits for a version lock's lock bit to clear run inside the warp
        self._unlocked = PollL2(tc)

    # ------------------------------------------------------------------
    # History accessors (oracle input)
    # ------------------------------------------------------------------
    def read_entries(self):
        return self.reads.entries

    def write_entries(self):
        return self.writes.values

    # ------------------------------------------------------------------
    # TXBegin (Algorithm 3 lines 1-5)
    # ------------------------------------------------------------------
    def tx_begin(self):
        tc = self.tc
        runtime = self.runtime
        tc.tx_window_begin()
        self.reads.clear()
        self.writes.clear()
        self.bloom.clear()
        self.locklog.clear()
        self._held.clear()
        self.is_opaque = True
        self.pass_tbv = True
        runtime.stats.add("begins")
        if runtime.abort_jitter and self._consecutive_aborts:
            exponent = min(self._consecutive_aborts, 6)
            delay = self._backoff_rng.randrange(runtime.abort_jitter << exponent) + 1
            for _ in range(delay):
                tc.work(1, Phase.INIT)
                yield
        tc.local_op(Phase.INIT, count=4)
        self.snapshot = tc.gread_l2(runtime.clock.addr, Phase.INIT)
        yield
        tc.fence(Phase.INIT)
        yield

    # ------------------------------------------------------------------
    # Post-validation (Algorithm 3 lines 6-20)
    # ------------------------------------------------------------------
    def _post_validation(self, version):
        """Value-based validation plus version re-check, restarting while
        concurrent committers interfere.  Returns consistency of the
        transaction at the final ``self.snapshot``."""
        tc = self.tc
        runtime = self.runtime
        lock_addr_for = runtime.lock_table.lock_addr_for
        gread = tc.gread
        gread_l2 = tc.gread_l2
        consistency_phase = Phase.CONSISTENCY
        self.snapshot = version
        while True:
            for addr, logged in self.reads:
                current = gread(addr, consistency_phase)
                yield
                if current != logged:
                    return False
            tc.fence(Phase.CONSISTENCY)
            yield
            restart = False
            for addr, _logged in self.reads:
                word = gread_l2(lock_addr_for(addr), consistency_phase)
                yield
                # inlined versionlock.is_locked / version_of
                observed_version = word >> 1
                if word & 1 or observed_version > self.snapshot:
                    self.snapshot = observed_version
                    restart = True
                    break
            if not restart:
                return True
            runtime.stats.add("postvalidation_restarts")

    # ------------------------------------------------------------------
    # TXRead (Algorithm 3 lines 21-35)
    # ------------------------------------------------------------------
    def tx_read(self, addr):
        tc = self.tc
        runtime = self.runtime
        runtime.stats.add("tx_reads")
        # write-set hit? (Bloom filter fast path, line 22)
        if self.bloom.might_contain(addr):
            tc.local_op(Phase.BUFFERING)
            if addr in self.writes:
                return self.writes.get(addr)
        value = tc.gread(addr, Phase.NATIVE)
        yield
        self._note_real_read(addr)
        self.reads.append(tc, addr, value, Phase.BUFFERING)
        tc.fence(Phase.CONSISTENCY)
        yield
        # consistency checking (lines 27-33): wait out committing lockers
        # (bit 0 is the lock bit, versionlock.is_locked), then compare the
        # stripe version against the snapshot
        unlocked = self._unlocked
        yield unlocked.arm(
            runtime.lock_table.lock_addr_for(addr), 1, Phase.CONSISTENCY
        )
        if unlocked.waits:
            runtime.stats.add("read_waits_on_lock", unlocked.waits)
        word = unlocked.word
        version = word >> 1
        if version > self.snapshot:
            if runtime.use_vbv:
                consistent = yield from self._post_validation(version)
                if consistent:
                    runtime.stats.add("hv_read_saves")
            else:
                # Pure TBV: a stale snapshot is a conflict, full stop.
                consistent = False
            consistent = self._filter_validation("read", consistent)
            if not consistent:
                self.is_opaque = False  # tx should be aborted (line 33)
                runtime.stats.add("postvalidation_failures")
        self.locklog.insert(runtime.lock_table.index_of(addr), read=True)
        tc.local_op(Phase.BUFFERING)
        return value

    # ------------------------------------------------------------------
    # TXWrite (Algorithm 3 lines 36-38)
    # ------------------------------------------------------------------
    def tx_write(self, addr, value):
        tc = self.tc
        runtime = self.runtime
        runtime.stats.add("tx_writes")
        self.writes.put(tc, addr, value, Phase.BUFFERING)
        self.bloom.add(addr)
        self.locklog.insert(runtime.lock_table.index_of(addr), write=True)
        tc.local_op(Phase.BUFFERING)
        return
        yield  # pragma: no cover - generator marker (no device ops needed)

    # ------------------------------------------------------------------
    # Commit machinery (Algorithm 3 lines 43-85)
    # ------------------------------------------------------------------
    def _vbv(self, phase):
        """Value-based validation over the whole read-set (lines 62-66)."""
        gread = self.tc.gread
        for addr, logged in self.reads:
            current = gread(addr, phase)
            yield
            if current != logged:
                return False
        return True

    def _get_locks_and_tbv(self):
        """Acquire all logged locks in sorted order; TBV read entries
        (lines 43-52).  Returns True when every lock was acquired."""
        tc = self.tc
        runtime = self.runtime
        lock_base = runtime.lock_table.base
        atomic_or = tc.atomic_or
        held = self._held
        snapshot = self.snapshot
        locks_phase = Phase.LOCKS
        self._failed_lock = None
        for entry in self.locklog:
            lock_id = entry.lock_id
            # lock_table.lock_addr and versionlock.is_locked/version_of
            # inlined (base + id, bit 0, >> 1): this loop runs once per
            # logged lock per acquisition attempt
            word = atomic_or(lock_base + lock_id, 1, locks_phase)
            yield
            if word & 1:
                runtime.stats.add("lock_acquire_failures")
                self._failed_lock = lock_id
                yield from self._release_locks()
                return False
            held[lock_id] = word
            if entry.read and word >> 1 > snapshot:
                self.pass_tbv = False
        return True

    def _wait_lock_free(self, lock_id):
        """Spin until global lock ``lock_id`` is released; ``yield`` the
        result.  Bounded: locks are only held by committing transactions,
        which finish."""
        return self._unlocked.arm(
            self.runtime.lock_table.lock_addr(lock_id), 1, Phase.LOCKS
        )

    def _acquire_phase(self):
        """Lock-acquisition strategy: sorted acquisition with bounded
        retries (livelock-free by the global lock order).  Returns True once
        all locks are held; aborts the transaction and returns False after
        ``max_lock_attempts`` failures.  Subclasses override this to model
        other strategies (e.g. the warp backoff of STM-HV-Backoff)."""
        runtime = self.runtime
        attempts = 0
        while True:
            acquired = yield from self._get_locks_and_tbv()
            if acquired:
                return True
            attempts += 1
            if attempts >= runtime.max_lock_attempts:
                # Practical implementations abort after several lock
                # acquisition attempts to reduce contention (section 4.3).
                return (yield from self._abort("lock_contention"))
            # Retry after the holder — typically a committing warp-mate —
            # finishes: locks are only held during commit, so the wait is
            # bounded.
            yield self._wait_lock_free(self._failed_lock)

    def _release_locks(self):
        """Release every held lock, restoring its pre-acquisition word
        (lines 53-55)."""
        gwrite = self.tc.gwrite
        lock_base = self.runtime.lock_table.base
        locks_phase = Phase.LOCKS
        for lock_id, word in self._held.items():
            gwrite(lock_base + lock_id, word, locks_phase)
            yield
        self._held.clear()

    def _release_and_update_locks(self, version):
        """Unlock; stripes written get the new version (lines 56-61)."""
        gwrite = self.tc.gwrite
        lock_base = self.runtime.lock_table.base
        held = self._held
        new_version_word = version << 1
        locks_phase = Phase.LOCKS
        for entry in self.locklog:
            if entry.write:
                new_word = new_version_word
            else:
                new_word = held[entry.lock_id]
            gwrite(lock_base + entry.lock_id, new_word, locks_phase)
            yield
        held.clear()

    def tx_commit(self):
        """TXCommit (lines 67-85); returns True when the transaction
        committed, False when it aborted (caller restarts it)."""
        tc = self.tc
        runtime = self.runtime
        if not self.writes:
            # Read-only: linearizes at the last read (line 68-69).  The
            # snapshot names the point where its reads were last verified.
            runtime.note_commit(self, version=self.snapshot)
            tc.tx_window_commit()
            return True
            yield  # pragma: no cover - generator marker

        acquired = yield from self._acquire_phase()
        if not acquired:
            return False  # already aborted inside the strategy

        if not self.pass_tbv:
            if runtime.use_vbv:
                # Hierarchical validation: a stale timestamp is only a
                # *candidate* conflict; VBV confirms or refutes it (line 76).
                valid = yield from self._vbv(Phase.COMMIT)
            else:
                # Pure TBV: a stale timestamp IS a conflict.
                valid = False
            valid = self._filter_validation("commit", valid)
            if valid:
                runtime.stats.add("hv_commit_saves")
            else:
                yield from self._release_locks()
                return (yield from self._abort("validation"))

        tc.fence(Phase.COMMIT)
        yield
        gwrite = tc.gwrite
        commit_phase = Phase.COMMIT
        for addr, value in self.writes.items():
            gwrite(addr, value, commit_phase)
            yield
        tc.fence(Phase.COMMIT)
        yield
        version = tc.atomic_inc(runtime.clock.addr, Phase.COMMIT) + 1
        yield
        yield from self._release_and_update_locks(version)
        self._consecutive_aborts = 0
        runtime.note_commit(self, version=version)
        tc.tx_window_commit()
        return True

    def _abort(self, reason):
        """Common abort path: count, reclassify cycles, reset opacity."""
        runtime = self.runtime
        runtime.note_abort(reason, tx=self)
        self._consecutive_aborts += 1
        self.tc.tx_window_abort()
        self.is_opaque = True
        return False
        yield  # pragma: no cover - generator marker

    def tx_abort(self):
        """Explicit abort after the program saw ``is_opaque == False``
        (the Figure 1 pattern)."""
        yield from self._abort("opacity")


class LockSortingRuntime(TmRuntime):
    """Runtime for STM-HV-Sorting (``use_vbv=True``) and STM-TBV-Sorting.

    ``sort_locks`` picks each thread's lock log: the order-preserving
    sorted :class:`LockLog` (the paper's design), or, where a subclass or
    a mutant turns it off, the raw :class:`EncounterOrderLog`.  Sorted
    logs count their insertion comparisons into ``locklog_tally``.
    """

    tx_class = LockSortingTx
    sort_locks = True

    def __init__(
        self,
        device,
        num_locks=1024,
        stripe_words=1,
        use_vbv=True,
        lock_log_buckets=16,
        max_lock_attempts=16,
        coalesced_logs=True,
        record_history=False,
        abort_jitter=0,
    ):
        super().__init__(device, record_history)
        self.lock_table = GlobalLockTable(device.mem, num_locks, stripe_words)
        self.clock = GlobalClock(device.mem)
        self.use_vbv = use_vbv
        self.lock_log_buckets = lock_log_buckets
        self.max_lock_attempts = max_lock_attempts
        self.coalesced_logs = coalesced_logs
        # Post-abort restart jitter (steps).  Zero for the sorted variants:
        # the global lock order makes livelock impossible by construction.
        # Non-sorted strategies (STM-HV-Backoff) set this to break symmetric
        # cross-warp retry patterns, standing in for the timing noise of
        # real hardware.
        self.abort_jitter = abort_jitter
        self.locklog_tally = ComparisonTally()

    @property
    def name(self):
        return "hv-sorting" if self.use_vbv else "tbv-sorting"

    def metric_gauges(self):
        gauges = super().metric_gauges()
        gauges["clock"] = self.clock.peek(self.mem)
        gauges["use_vbv"] = int(self.use_vbv)
        gauges["max_lock_attempts"] = self.max_lock_attempts
        gauges["abort_jitter"] = self.abort_jitter
        for key, value in self.lock_table.metrics_summary().items():
            gauges["lock_table.%s" % key] = value
        return gauges
