"""CGL: the coarse-grained locking baseline (paper section 4.2).

Every transaction body becomes a critical section under one global
spinlock, acquired with Algorithm 1's scheme #3 (diverge on failure — safe
for a single lock).  All critical sections across the whole device
serialize; this is the denominator of every speedup the paper reports.

The CGL "transaction" interface never aborts and writes directly to
memory; ``is_opaque`` stays True.
"""

from repro.gpu.events import Phase
from repro.gpu.steppers import TtasAcquire
from repro.stm.runtime.base import TmRuntime, TxThread


class CglTx(TxThread):
    """One critical section presented through the TxThread interface."""

    def __init__(self, runtime, tc):
        super().__init__(runtime, tc)
        self._reads = []
        self._writes = {}
        self._acquire = TtasAcquire(tc)

    def read_entries(self):
        return self._reads

    def write_entries(self):
        return self._writes

    def tx_begin(self):
        """Acquire the global lock (scheme #3: diverge on failure)."""
        tc = self.tc
        runtime = self.runtime
        tc.tx_window_begin()
        self._reads = []
        self._writes = {}
        stats_add = runtime.stats.add
        stats_add("begins")
        # Test-and-test-and-set, run by the warp (repro.gpu.steppers): spin
        # on a plain read, CAS only when the lock looks free (keeps the
        # atomic unit from serializing every spinning lane every cycle).
        acquire = self._acquire
        yield acquire.arm(runtime.lock_addr, Phase.LOCKS)
        if acquire.spins:
            stats_add("lock_spin_reads", acquire.spins)
        if acquire.failures:
            stats_add("lock_acquire_failures", acquire.failures)

    def tx_read(self, addr):
        tc = self.tc
        self.runtime.stats.add("tx_reads")
        value = tc.gread(addr, Phase.NATIVE)
        yield
        if addr not in self._writes:
            # Reads that follow an own write observe this section's own
            # update, not pre-section state; history keeps pre-state reads
            # only, which is what the serializability oracle replays.
            self._reads.append((addr, value))
        return value

    def tx_write(self, addr, value):
        tc = self.tc
        self.runtime.stats.add("tx_writes")
        tc.gwrite(addr, value, Phase.NATIVE)
        yield
        self._writes[addr] = value

    def tx_commit(self):
        """Release the global lock; critical sections always 'commit'."""
        tc = self.tc
        runtime = self.runtime
        tc.fence(Phase.COMMIT)
        yield
        # The sequence number is taken while the lock is still held: after
        # the release another warp may run and commit a whole section
        # before this lane resumes.
        runtime._commit_seq += 1
        version = runtime._commit_seq
        tc.gwrite(runtime.lock_addr, 0, Phase.LOCKS)
        yield
        runtime.note_commit(self, version=version)
        tc.tx_window_commit()
        return True

    def tx_abort(self):
        """Give up a critical section that has not yet written.

        Programs like labyrinth abandon an attempt when they find their plan
        blocked; under CGL that is legal only before any direct write — a
        critical section cannot undo writes, so aborting after one is a
        programming error and raises.
        """
        if self._writes:
            raise RuntimeError(
                "CGL critical section aborted after writing %d words; direct "
                "updates cannot be rolled back" % len(self._writes)
            )
        tc = self.tc
        runtime = self.runtime
        tc.gwrite(runtime.lock_addr, 0, Phase.LOCKS)
        yield
        runtime.note_abort("giveup", tx=self)
        tc.tx_window_abort()


class CglRuntime(TmRuntime):
    """Single-global-lock critical-section runtime."""

    name = "cgl"
    tx_class = CglTx

    def __init__(self, device, record_history=False):
        super().__init__(device, record_history)
        self.lock_addr = device.mem.alloc(1, "cgl_lock")
        # Host-side commit sequencing for the oracle: the global lock
        # already totally orders critical sections.
        self._commit_seq = 0

    def metric_gauges(self):
        gauges = super().metric_gauges()
        gauges["lock_word"] = self.mem.read(self.lock_addr)
        gauges["commit_seq"] = self._commit_seq
        return gauges
