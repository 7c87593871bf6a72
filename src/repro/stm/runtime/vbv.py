"""STM-VBV: NOrec-like value-based validation under a single global
sequence lock (Dalessandro et al., PPoPP 2010; paper section 4.2).

The only global metadata is one sequence word: even = quiescent, odd = a
writer is committing.  Reads log (address, value) pairs; whenever the
sequence changes, the whole read-set is revalidated by value.  Commit
acquires the sequence lock with a CAS, writes back, and bumps the sequence
by two.

This is the scalability foil of the paper: with thousands of GPU threads the
single word is updated constantly and every commit serializes on it, so
STM-VBV "yields undesirable performance on workloads with a large number of
transactions" (Figure 2) and flattens in the thread-scaling study
(Figure 3).  It needs no livelock counter-measures — there is only one lock.
"""

from repro.gpu.events import Phase
from repro.gpu.steppers import PollL2
from repro.stm.bloom import BLOOM_BITS, BloomFilter
from repro.stm.runtime.base import TmRuntime, TxThread
from repro.stm.rwset import LogCosting, ReadSet, WriteSet


class VbvRuntime(TmRuntime):
    """Runtime of the NOrec-like single-sequence-lock STM."""

    name = "vbv"

    def __init__(self, device, coalesced_logs=True, record_history=False):
        super().__init__(device, record_history)
        self.seq_addr = device.mem.alloc(1, "g_seqlock")
        self.coalesced_logs = coalesced_logs

    def make_thread(self, tc):
        return VbvTx(self, tc)

    def metric_gauges(self):
        gauges = super().metric_gauges()
        gauges["seqlock"] = self.mem.read(self.seq_addr)
        gauges["bloom_bits"] = BLOOM_BITS
        return gauges


class VbvTx(TxThread):
    """Per-thread NOrec transaction."""

    def __init__(self, runtime, tc):
        super().__init__(runtime, tc)
        costing = LogCosting(coalesced=runtime.coalesced_logs)
        self.reads = ReadSet(costing)
        self.writes = WriteSet(costing)
        self.bloom = BloomFilter()
        self.snapshot = 0
        # waits for an even sequence word run inside the warp
        self._even = PollL2(tc)

    def read_entries(self):
        return self.reads.entries

    def write_entries(self):
        return self.writes.values

    # ------------------------------------------------------------------
    def tx_begin(self):
        tc = self.tc
        runtime = self.runtime
        tc.tx_window_begin()
        self.reads.clear()
        self.writes.clear()
        self.bloom.clear()
        self.is_opaque = True
        runtime.stats.add("begins")
        tc.local_op(Phase.INIT, count=3)
        # spin until the sequence is even (no writer mid-commit)
        even = self._even
        yield even.arm(runtime.seq_addr, 1, Phase.INIT)
        if even.waits:
            runtime.stats.add("begin_waits", even.waits)
        self.snapshot = even.word
        tc.fence(Phase.INIT)
        yield

    def _validate(self):
        """Value-based validation of the entire read-set (incremental
        validation made affordable by the sequence-lock filter)."""
        tc = self.tc
        self.runtime.stats.add("validations")
        for addr, logged in self.reads:
            current = tc.gread(addr, Phase.CONSISTENCY)
            yield
            if current != logged:
                return False
        return True

    def tx_read(self, addr):
        tc = self.tc
        runtime = self.runtime
        runtime.stats.add("tx_reads")
        if self.bloom.might_contain(addr):
            tc.local_op(Phase.BUFFERING)
            if addr in self.writes:
                return self.writes.get(addr)
        while True:
            value = tc.gread(addr, Phase.NATIVE)
            yield
            seq = tc.gread_l2(runtime.seq_addr, Phase.CONSISTENCY)
            yield
            if seq == self.snapshot:
                break
            # The world moved: wait out any committer, revalidate, extend
            # the snapshot, and re-read.
            if seq & 1:
                yield self._even.arm(runtime.seq_addr, 1, Phase.CONSISTENCY)
                seq = self._even.word
            consistent = yield from self._validate()
            consistent = self._filter_validation("read", consistent)
            if not consistent:
                self.is_opaque = False
                runtime.stats.add("postvalidation_failures")
                return value
            self.snapshot = seq
        self._note_real_read(addr)
        self.reads.append(tc, addr, value, Phase.BUFFERING)
        return value

    def tx_write(self, addr, value):
        tc = self.tc
        self.runtime.stats.add("tx_writes")
        self.writes.put(tc, addr, value, Phase.BUFFERING)
        self.bloom.add(addr)
        return
        yield  # pragma: no cover - generator marker

    def tx_commit(self):
        tc = self.tc
        runtime = self.runtime
        if not self.writes:
            runtime.note_commit(self, version=self.snapshot // 2)
            tc.tx_window_commit()
            return True
            yield  # pragma: no cover - generator marker

        while True:
            observed = tc.atomic_cas(
                runtime.seq_addr, self.snapshot, self.snapshot + 1, Phase.LOCKS
            )
            yield
            if observed == self.snapshot:
                break
            runtime.stats.add("seqlock_cas_failures")
            seq = observed
            if seq & 1:
                yield self._even.arm(runtime.seq_addr, 1, Phase.CONSISTENCY)
                seq = self._even.word
            consistent = yield from self._validate()
            consistent = self._filter_validation("commit", consistent)
            if not consistent:
                return (yield from self._abort("validation"))
            self.snapshot = seq

        # Sequence lock held: write back and release.
        tc.fence(Phase.COMMIT)
        yield
        for addr, value in self.writes.items():
            tc.gwrite(addr, value, Phase.COMMIT)
            yield
        tc.fence(Phase.COMMIT)
        yield
        tc.gwrite(runtime.seq_addr, self.snapshot + 2, Phase.LOCKS)
        yield
        runtime.note_commit(self, version=(self.snapshot + 2) // 2)
        tc.tx_window_commit()
        return True

    def _abort(self, reason):
        self.runtime.note_abort(reason, tx=self)
        self.tc.tx_window_abort()
        self.is_opaque = True
        return False
        yield  # pragma: no cover - generator marker

    def tx_abort(self):
        yield from self._abort("opacity")
