"""The seeded protocol-bug corpus (mutants) and their reversible patches.

Each :class:`Mutant` is a named, documented protocol bug applied to a
*runtime instance* — never to the classes — by wrapping the runtime's
``make_thread`` so every transaction thread it creates gets the buggy
method bodies bound as instance attributes.  :meth:`Mutant.revert`
removes the wrapper and restores any runtime attributes, leaving the
shared classes untouched, so mutants are safe to apply inside a process
that also runs clean baselines.

The corpus seeds one bug per protocol obligation the paper's design
carries (Algorithm 3 and section 3): hierarchical re-validation, the
commit-time TBV check, sorted lock acquisition, snapshot/sequence-lock
discipline in VBV, the pre-writeback threadfence, lock release, version
publication, write buffering, read-own-write coherence, CGL mutual
exclusion, clock monotonicity and EGPGV's release-after-writeback order.
``expected`` names the checkers (``oracle``/``sanitizer``/``fuzzer``)
that should catch each bug; the efficacy matrix
(:mod:`repro.faults.campaign`) proves every mutant is caught by at least
one and that the unmutated runtimes stay clean.

Buggy method bodies are deliberate near-copies of the originals with the
seeded defect marked by a ``# BUG:`` comment — a mutant must preserve
everything else (costs, stats, yields) so detection is attributable to
the defect, not to collateral drift.
"""

import types

from repro.gpu.events import Phase
from repro.stm.locklog import EncounterOrderLog
from repro.stm.runtime.locksorting import LockSortingTx
from repro.stm.versionlock import is_locked


class Mutant:
    """One reversible seeded protocol bug.

    ``tx_patches`` maps method names to replacement functions bound onto
    every transaction thread the mutated runtime creates; ``init_patch``
    (``f(runtime, tx)``) mutates freshly-created thread state;
    ``runtime_attrs`` overrides runtime attributes for the mutant's
    lifetime; ``workload_params`` are campaign workload-parameter
    overrides that raise the collision density a data race needs to
    manifest.
    """

    def __init__(self, name, variants, description, expected,
                 tx_patches=None, init_patch=None, runtime_attrs=None,
                 workload_params=None):
        self.name = name
        self.variants = tuple(variants)
        self.description = description
        self.expected = tuple(expected)
        self.tx_patches = dict(tx_patches or {})
        self.init_patch = init_patch
        self.runtime_attrs = dict(runtime_attrs or {})
        self.workload_params = dict(workload_params or {})

    def apply(self, runtime):
        """Install this mutant on ``runtime`` (instance-level only)."""
        if getattr(runtime, "_mutant", None) is not None:
            raise RuntimeError(
                "runtime already carries mutant %r" % runtime._mutant.name
            )
        if runtime.name not in self.variants:
            raise ValueError(
                "mutant %r targets %s, not %r"
                % (self.name, "/".join(self.variants), runtime.name)
            )
        original_make = runtime.make_thread
        patches = self.tx_patches
        init_patch = self.init_patch

        def make_mutated_thread(tc):
            tx = original_make(tc)
            for method_name, func in patches.items():
                setattr(tx, method_name, types.MethodType(func, tx))
            if init_patch is not None:
                init_patch(runtime, tx)
            return tx

        saved = {}
        for attr, value in self.runtime_attrs.items():
            saved[attr] = getattr(runtime, attr)
            setattr(runtime, attr, value)
        runtime.make_thread = make_mutated_thread
        runtime._mutant = self
        runtime._mutant_saved = saved
        return runtime

    def revert(self, runtime):
        """Remove this mutant from ``runtime``; already-created threads
        keep their patched methods (create transactions after apply)."""
        if getattr(runtime, "_mutant", None) is not self:
            raise RuntimeError("runtime does not carry mutant %r" % self.name)
        del runtime.__dict__["make_thread"]
        for attr, value in runtime._mutant_saved.items():
            setattr(runtime, attr, value)
        del runtime.__dict__["_mutant"]
        del runtime.__dict__["_mutant_saved"]
        return runtime

    def __repr__(self):
        return "Mutant(%s -> %s)" % (self.name, "/".join(self.variants))


class MutantRuntimeFactory:
    """Picklable ``runtime_factory`` for :func:`repro.harness.runner
    .run_workload` / the fuzzer: builds the variant's runtime and
    applies one mutant by name (resolved in the worker process)."""

    def __init__(self, mutant_name):
        self.mutant_name = mutant_name

    def __call__(self, variant, device, stm_config):
        from repro.stm.api import make_runtime

        runtime = make_runtime(variant, device, stm_config)
        MUTANTS[self.mutant_name].apply(runtime)
        return runtime

    def __repr__(self):
        return "MutantRuntimeFactory(%r)" % (self.mutant_name,)


# ======================================================================
# Patched method bodies.  Near-copies of the originals; the seeded
# defect is the line(s) marked "# BUG:".
# ======================================================================

def _postvalidation_always_true(self, version):
    # BUG: hierarchical re-validation replaced by blind acceptance — the
    # read-set is never re-checked by value, so stale reads survive.
    self.snapshot = version
    return True
    yield  # pragma: no cover - generator marker


def _get_locks_ignore_tbv(self):
    ok = yield from LockSortingTx._get_locks_and_tbv(self)
    if ok:
        # BUG: discard the timestamp-based validation verdict gathered
        # while locking; commit proceeds as if every stripe were fresh.
        self.pass_tbv = True
    return ok


def _read_ignore_staleness(self, addr):
    # Near-copy of LockSortingTx.tx_read for the pure-TBV variant.
    tc = self.tc
    runtime = self.runtime
    runtime.stats.add("tx_reads")
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
    while True:
        word = tc.gread_l2(runtime.lock_table.lock_addr_for(addr), Phase.CONSISTENCY)
        yield
        if not is_locked(word):
            break
        runtime.stats.add("read_waits_on_lock")
    # BUG: the version-vs-snapshot staleness check (Algorithm 3 line 31)
    # is gone — a read of a stripe committed after our snapshot passes.
    self.locklog.insert(runtime.lock_table.index_of(addr), read=True)
    tc.local_op(Phase.BUFFERING)
    return value


def _install_unsorted_locklog(runtime, tx):
    # BUG: the encounter-order log drops the paper's global acquisition
    # order; crossed lockstep transactions retry forever (section 2.2).
    tx.locklog = EncounterOrderLog(runtime.lock_table.num_locks)


def _vbv_begin_ignores_writers(self):
    # Near-copy of VbvTx.tx_begin.
    tc = self.tc
    runtime = self.runtime
    tc.tx_window_begin()
    self.reads.clear()
    self.writes.clear()
    self.bloom.clear()
    self.is_opaque = True
    runtime.stats.add("begins")
    tc.local_op(Phase.INIT, count=3)
    # BUG: no spin until the sequence is even — an odd (writer-mid-commit)
    # sequence becomes the snapshot, so reads during the writeback window
    # look "consistent" and a commit CAS can steal an odd sequence.
    seq = tc.gread_l2(runtime.seq_addr, Phase.INIT)
    yield
    self.snapshot = seq
    tc.fence(Phase.INIT)
    yield


def _commit_without_writeback_fence(self):
    # Near-copy of LockSortingTx.tx_commit.
    tc = self.tc
    runtime = self.runtime
    if not self.writes:
        runtime.note_commit(self, version=self.snapshot)
        tc.tx_window_commit()
        return True
        yield  # pragma: no cover - generator marker

    acquired = yield from self._acquire_phase()
    if not acquired:
        return False

    if not self.pass_tbv:
        if runtime.use_vbv:
            valid = yield from self._vbv(Phase.COMMIT)
        else:
            valid = False
        if valid:
            runtime.stats.add("hv_commit_saves")
        else:
            yield from self._release_locks()
            return (yield from self._abort("validation"))

    # BUG: the pre-writeback threadfence (Algorithm 3 line 79) is gone —
    # lock acquisitions are not ordered before the data writebacks.
    for addr, value in self.writes.items():
        tc.gwrite(addr, value, Phase.COMMIT)
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


def _release_forgets_last_lock(self, version):
    # Near-copy of LockSortingTx._release_and_update_locks.
    tc = self.tc
    lock_table = self.runtime.lock_table
    entries = list(self.locklog)
    # BUG: the final logged lock is never released; it stays locked
    # forever and every later transaction touching its stripe hangs.
    for entry in entries[:-1]:
        if entry.write:
            new_word = version << 1
        else:
            new_word = self._held[entry.lock_id]
        tc.gwrite(lock_table.lock_addr(entry.lock_id), new_word, Phase.LOCKS)
        yield
    self._held.clear()


def _release_without_version_update(self, version):
    # Near-copy of LockSortingTx._release_and_update_locks.
    tc = self.tc
    lock_table = self.runtime.lock_table
    for entry in self.locklog:
        # BUG: written stripes get their *old* word back instead of the
        # new version — the lock table never learns about the commit, so
        # later timestamp validations pass on stale data.
        new_word = self._held[entry.lock_id]
        tc.gwrite(lock_table.lock_addr(entry.lock_id), new_word, Phase.LOCKS)
        yield
    self._held.clear()


def _write_through_dirty(self, addr, value):
    # Near-copy of LockSortingTx.tx_write.
    tc = self.tc
    runtime = self.runtime
    runtime.stats.add("tx_writes")
    self.writes.put(tc, addr, value, Phase.BUFFERING)
    self.bloom.add(addr)
    self.locklog.insert(runtime.lock_table.index_of(addr), write=True)
    tc.local_op(Phase.BUFFERING)
    # BUG: the speculative value also lands in global memory at encounter
    # time, unlocked — other transactions read uncommitted state and an
    # abort leaves the dirty value behind.
    tc.gwrite(addr, value, Phase.NATIVE)
    yield


def _read_skips_own_writes(self, addr):
    # Near-copy of LockSortingTx.tx_read.
    tc = self.tc
    runtime = self.runtime
    runtime.stats.add("tx_reads")
    # BUG: the write-set lookup (Algorithm 3 line 22) is gone — a read
    # after an own buffered write returns the stale global value.
    value = tc.gread(addr, Phase.NATIVE)
    yield
    self._note_real_read(addr)
    self.reads.append(tc, addr, value, Phase.BUFFERING)
    tc.fence(Phase.CONSISTENCY)
    yield
    while True:
        word = tc.gread_l2(runtime.lock_table.lock_addr_for(addr), Phase.CONSISTENCY)
        yield
        if not is_locked(word):
            break
        runtime.stats.add("read_waits_on_lock")
    version = word >> 1
    if version > self.snapshot:
        if runtime.use_vbv:
            consistent = yield from self._post_validation(version)
            if consistent:
                runtime.stats.add("hv_read_saves")
        else:
            consistent = False
        if not consistent:
            self.is_opaque = False
            runtime.stats.add("postvalidation_failures")
    self.locklog.insert(runtime.lock_table.index_of(addr), read=True)
    tc.local_op(Phase.BUFFERING)
    return value


def _cgl_begin_without_lock(self):
    # Near-copy of CglTx.tx_begin.
    tc = self.tc
    runtime = self.runtime
    tc.tx_window_begin()
    self._reads = []
    self._writes = {}
    runtime.stats.add("begins")
    # BUG: the critical section starts without acquiring the global lock;
    # every "atomic" section on the device now runs concurrently.
    tc.local_op(Phase.LOCKS)
    yield


def _commit_with_stuck_clock(self):
    # Near-copy of LockSortingTx.tx_commit (inherited by STM-HV-Backoff).
    tc = self.tc
    runtime = self.runtime
    if not self.writes:
        runtime.note_commit(self, version=self.snapshot)
        tc.tx_window_commit()
        return True
        yield  # pragma: no cover - generator marker

    acquired = yield from self._acquire_phase()
    if not acquired:
        return False

    if not self.pass_tbv:
        if runtime.use_vbv:
            valid = yield from self._vbv(Phase.COMMIT)
        else:
            valid = False
        if valid:
            runtime.stats.add("hv_commit_saves")
        else:
            yield from self._release_locks()
            return (yield from self._abort("validation"))

    tc.fence(Phase.COMMIT)
    yield
    for addr, value in self.writes.items():
        tc.gwrite(addr, value, Phase.COMMIT)
        yield
    tc.fence(Phase.COMMIT)
    yield
    # BUG: the global clock is read, never atomically advanced — every
    # concurrent writer publishes the same "new" version and snapshots
    # stop moving.
    version = tc.gread_l2(runtime.clock.addr, Phase.COMMIT) + 1
    yield
    yield from self._release_and_update_locks(version)
    self._consecutive_aborts = 0
    runtime.note_commit(self, version=version)
    tc.tx_window_commit()
    return True


def _egpgv_commit_release_first(self):
    # Near-copy of EgpgvTx.tx_commit.
    tc = self.tc
    runtime = self.runtime
    tc.work(runtime.object_overhead, Phase.COMMIT)
    yield
    tc.fence(Phase.COMMIT)
    yield
    # BUG: every encounter-time lock is released *before* the buffered
    # writes reach memory — the two-phase-locking write-back happens
    # entirely unprotected.
    yield from self._release_all()
    for addr, value in self.writes.items():
        tc.gwrite(addr, value, Phase.COMMIT)
        yield
    tc.fence(Phase.COMMIT)
    yield
    version = tc.atomic_inc(runtime.clock.addr, Phase.COMMIT) + 1
    yield
    self._leave_queue()
    self._consecutive_aborts = 0
    runtime.note_commit(self, version=version)
    tc.tx_window_commit()
    return True


def _vbv_validate_always_true(self):
    # BUG: NOrec's value-based validation replaced by blind acceptance —
    # snapshot extensions keep stale reads without ever re-checking them.
    self.runtime.stats.add("validations")
    return True
    yield  # pragma: no cover - generator marker


# ======================================================================
# The corpus
# ======================================================================

MUTANTS = {
    mutant.name: mutant
    for mutant in (
        Mutant(
            "skip-revalidation",
            variants=("hv-sorting", "hv-adaptive"),
            description="hierarchical re-validation (post-validation) "
                        "blindly reports consistency and commit-time TBV "
                        "verdicts are discarded",
            expected=("oracle", "fuzzer"),
            tx_patches={
                "_post_validation": _postvalidation_always_true,
                "_get_locks_and_tbv": _get_locks_ignore_tbv,
            },
            workload_params={"array_size": 16},
        ),
        Mutant(
            "skip-tbv-validation",
            variants=("tbv-sorting",),
            description="pure-TBV variant ignores stale stripe versions at "
                        "read time and discards the commit-time TBV verdict",
            expected=("oracle", "fuzzer"),
            tx_patches={
                "tx_read": _read_ignore_staleness,
                "_get_locks_and_tbv": _get_locks_ignore_tbv,
            },
            workload_params={"array_size": 16},
        ),
        Mutant(
            "unsorted-lock-acquisition",
            variants=("hv-sorting",),
            description="encounter-order lock log with unbounded retries: "
                        "crossed lockstep transactions livelock (paper "
                        "section 2.2)",
            expected=("oracle", "fuzzer"),
            init_patch=_install_unsorted_locklog,
            runtime_attrs={"max_lock_attempts": 10 ** 9, "abort_jitter": 0},
            workload_params={"array_size": 4, "actions_per_tx": 4},
        ),
        Mutant(
            "vbv-snapshot-off-by-one",
            variants=("vbv",),
            description="VBV snapshots an odd (writer-mid-commit) sequence "
                        "value: reads during writeback validate and a commit "
                        "CAS can steal the held sequence lock",
            expected=("fuzzer",),
            tx_patches={"tx_begin": _vbv_begin_ignores_writers},
            workload_params={
                "array_size": 4,
                "txs_per_thread": 4,
                "actions_per_tx": 4,
            },
        ),
        Mutant(
            "vbv-skip-validation",
            variants=("vbv",),
            description="NOrec value-based validation blindly passes, so "
                        "snapshot extensions keep stale read sets",
            expected=("oracle", "fuzzer"),
            tx_patches={"_validate": _vbv_validate_always_true},
            workload_params={"array_size": 8},
        ),
        Mutant(
            "missing-writeback-fence",
            variants=("optimized",),
            description="the threadfence between lock acquisition and data "
                        "writeback (Algorithm 3 line 79) is removed",
            expected=("sanitizer",),
            tx_patches={"tx_commit": _commit_without_writeback_fence},
        ),
        Mutant(
            "lost-lock-release",
            variants=("hv-sorting",),
            description="the last acquired version-lock is never released: "
                        "its stripe stays locked for the rest of the kernel",
            expected=("sanitizer", "oracle"),
            tx_patches={"_release_and_update_locks": _release_forgets_last_lock},
        ),
        Mutant(
            "forgotten-version-update",
            variants=("hv-sorting",),
            description="released locks keep their pre-commit version word, "
                        "so timestamp validation never sees new commits",
            expected=("oracle", "fuzzer"),
            tx_patches={"_release_and_update_locks": _release_without_version_update},
            workload_params={"array_size": 16},
        ),
        Mutant(
            "dirty-writes",
            variants=("hv-sorting",),
            description="speculative writes also land in global memory at "
                        "encounter time, unlocked and unrecoverable on abort",
            expected=("oracle",),
            tx_patches={"tx_write": _write_through_dirty},
            workload_params={"array_size": 16},
        ),
        Mutant(
            "read-own-write-incoherence",
            variants=("hv-sorting",),
            description="the write-set lookup in the read barrier is gone: "
                        "reads after own buffered writes return stale global "
                        "values",
            expected=("sanitizer", "oracle"),
            tx_patches={"tx_read": _read_skips_own_writes},
            workload_params={"array_size": 4, "actions_per_tx": 8},
        ),
        Mutant(
            "cgl-no-lock",
            variants=("cgl",),
            description="CGL critical sections start without acquiring the "
                        "global lock: all sections run concurrently",
            expected=("oracle",),
            tx_patches={"tx_begin": _cgl_begin_without_lock},
            workload_params={"array_size": 4},
        ),
        Mutant(
            "clock-stuck",
            variants=("hv-backoff",),
            description="commit reads the global clock instead of atomically "
                        "advancing it: versions repeat and the clock never "
                        "moves",
            expected=("sanitizer",),
            tx_patches={"tx_commit": _commit_with_stuck_clock},
        ),
        Mutant(
            "egpgv-release-before-writeback",
            variants=("egpgv",),
            description="EGPGV releases its encounter-time locks before the "
                        "buffered writes reach memory",
            expected=("sanitizer",),
            tx_patches={"tx_commit": _egpgv_commit_release_first},
        ),
    )
}
