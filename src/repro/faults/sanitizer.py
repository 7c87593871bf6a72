"""Online STM invariant checker (the "sanitizer").

:class:`StmSanitizer` watches one runtime's execution from three angles:

* the runtime's observer slot (:mod:`repro.stm.trace`): the sanitizer
  joins ``runtime.tracer`` and implements its ``on_commit``,
  ``on_abort`` and ``on_tx_read`` seams (the last raised by every
  write-buffering runtime's read barrier through
  :meth:`TxThread._note_real_read`);
* the ``write``/``atomic``/``event`` seams of every
  :class:`~repro.gpu.thread.ProbedThreadCtx` (the sanitizer is one of its
  probes);
* host-side metadata inspection at kernel exit
  (:meth:`check_kernel_exit`).

Checks (the ``check`` field of each violation):

``lock_leak``
    version-lock table entries still locked — or the VBV sequence lock
    odd, or the CGL global lock held — after a kernel completed.
``clock_monotonicity``
    two writer commits observed the same commit version (the global
    clock went backwards or stood still), or at kernel exit the clock
    value disagrees with the number of clock-advancing commits.
``unlocked_write``
    a commit-phase writeback to a data word whose governing version-lock
    (or sequence lock) was not held at the time of the store.
``missing_fence``
    a commit-phase writeback issued after lock acquisition with no
    intervening commit-phase ``threadfence``.
``read_own_write``
    a write-buffering transaction performed a *real* global read of an
    address in its own write set instead of serving the buffered value.
``torn_version``
    a LOCKS-phase store published impossible metadata: an unlocked
    version-lock word naming a version beyond the global clock, a VBV
    sequence-lock release that is not ``current + 1``, or a nonzero CGL
    release (the byzantine ``torn_publish`` signature).

Each check is calibrated against all eight unmutated runtimes (the
no-false-positive test in ``tests/faults``): CGL's in-place NATIVE data
writes are exempt, EGPGV's clock advances on *every* commit (including
read-only ones) so its exit check counts all commits, and VBV's sequence
lock stands in for the lock table.

Violations are recorded as structured :class:`SanitizerViolation` objects
(bounded by ``max_violations``) and counted into an optional
:class:`~repro.telemetry.registry.MetricRegistry` under ``sanitizer.*``.
"""

from repro.gpu.events import Phase

CHECKS = (
    "lock_leak",
    "clock_monotonicity",
    "unlocked_write",
    "missing_fence",
    "read_own_write",
    "torn_version",
)


class SanitizerViolation:
    """One detected invariant violation (structured, JSON-friendly).

    ``cycle`` is the issuing lane's simulated-cycle witness at detection
    time (the ``now`` every probe seam keeps current); exit-sweep
    violations carry the last witnessed cycle."""

    __slots__ = ("check", "tid", "addr", "detail", "cycle")

    def __init__(self, check, tid, addr, detail, cycle=0):
        self.check = check
        self.tid = tid
        self.addr = addr
        self.detail = detail
        self.cycle = cycle

    def as_dict(self):
        return {
            "check": self.check,
            "tid": self.tid,
            "addr": self.addr,
            "detail": self.detail,
            "cycle": self.cycle,
        }

    def __repr__(self):
        return "SanitizerViolation(%s, tid=%s, addr=%s: %s)" % (
            self.check, self.tid, self.addr, self.detail,
        )


class StmSanitizer:
    """Online invariant checker for one bound TM runtime instance."""

    def __init__(self, registry=None, max_violations=64):
        self.registry = registry
        self.max_violations = max_violations
        self.violations = []
        self.dropped = 0
        # metadata resolved by bind()
        self._mem = None
        self._lock_table = None
        self._clock_addr = None
        self._seq_addr = None
        self._cgl_lock_addr = None
        self._count_all_commits = False
        self._mutex_locks = False
        # online state
        self._writer_commits = 0
        self._total_commits = 0
        self._versions_seen = set()
        self._pending_fence = set()
        #: simulated-cycle witness (set by every event and probe seam)
        self.now = 0
        #: check name -> cycle of its first violation (detection latency)
        self.first_violations = {}

    # ------------------------------------------------------------------
    # Binding
    # ------------------------------------------------------------------
    def bind(self, runtime):
        """Attach to ``runtime``: capture its metadata locations, join the
        runtime's observer slot (after any observer already there) so
        commit/abort/read events flow here, and install this checker on
        the runtime's device so every launch gives its threads this
        checker as a probe.  Keeps no reference to the runtime, which
        holds this checker in its observer slot.  Returns ``self``."""
        runtime.observe(self)
        runtime.device.sanitizer = self
        self._mem = runtime.mem
        lock_table = getattr(runtime, "lock_table", None)
        self._lock_table = lock_table
        clock = getattr(runtime, "clock", None)
        self._clock_addr = clock.addr if clock is not None else None
        self._seq_addr = getattr(runtime, "seq_addr", None)
        # CGL exposes its single coarse lock directly as `lock_addr`
        self._cgl_lock_addr = getattr(runtime, "lock_addr", None)
        # EGPGV ticks the clock on every commit, read-only included
        self._count_all_commits = runtime.name == "egpgv"
        # EGPGV locks are 0/1 mutexes: *any* nonzero word at exit is a
        # leak, not just an odd one (a torn release can park a large
        # even value that the version-lock parity rule would miss)
        self._mutex_locks = runtime.name == "egpgv"
        return self

    def _is_metadata(self, addr):
        table = self._lock_table
        if table is not None and table.base <= addr < table.base + table.num_locks:
            return True
        return addr in (self._clock_addr, self._seq_addr, self._cgl_lock_addr)

    # ------------------------------------------------------------------
    # Violation recording
    # ------------------------------------------------------------------
    def _violate(self, check, tid, addr, detail):
        registry = self.registry
        if registry is not None:
            registry.counter("sanitizer.violations").add()
            registry.counter("sanitizer.%s" % check).add()
        if check not in self.first_violations:
            self.first_violations[check] = self.now
            if registry is not None:
                # merged with min() across workers (MIN_GAUGE_PREFIXES)
                registry.gauge("sanitizer.first_violation.%s" % check).set(
                    self.now
                )
        if len(self.violations) >= self.max_violations:
            self.dropped += 1
            return
        self.violations.append(
            SanitizerViolation(check, tid, addr, detail, cycle=self.now)
        )

    @property
    def ok(self):
        return not self.violations and not self.dropped

    def report(self):
        """Human-readable multi-line summary (empty string when clean)."""
        lines = [repr(v) for v in self.violations]
        if self.dropped:
            lines.append("... and %d more violations dropped" % self.dropped)
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # observer-slot seams (fed by TmRuntime.note_commit/note_abort)
    # ------------------------------------------------------------------
    def on_commit(self, tx, version):
        self.now = tx.tc.cycles_total
        self._total_commits += 1
        writer = False
        for _ in tx.write_entries():
            writer = True
            break
        if not writer:
            return
        self._writer_commits += 1
        if version is None:
            return
        if version in self._versions_seen:
            self._violate(
                "clock_monotonicity", tx.tc.tid, None,
                "writer commit reused version %d" % version,
            )
        else:
            self._versions_seen.add(version)

    def on_abort(self, tx, reason):
        # aborts carry no invariant of their own; the abort event seam
        # (below) clears the per-thread fence state
        pass

    # ------------------------------------------------------------------
    # Thread-context probe seams
    # ------------------------------------------------------------------
    def write(self, tc, addr, phase, value, old):
        self.now = tc.cycles_total
        if phase is Phase.LOCKS:
            self._check_metadata_publish(tc.tid, addr, value)
        elif phase is Phase.COMMIT:
            self._check_writeback(tc.tid, addr)
        return value

    def atomic(self, tc, op, addr, phase, a, b):
        self.now = tc.cycles_total
        if phase is Phase.LOCKS:
            self._pending_fence.add(tc.tid)

    def event(self, tc, name, phase):
        self.now = tc.cycles_total
        # a commit-phase fence, or any attempt boundary, resets the
        # fence-ordering state
        if name != "fence" or phase is Phase.COMMIT:
            self._pending_fence.discard(tc.tid)

    def _check_writeback(self, tid, addr):
        """``missing_fence`` and ``unlocked_write`` for one commit-phase
        store."""
        if tid in self._pending_fence:
            self._pending_fence.discard(tid)  # flag once per attempt
            self._violate(
                "missing_fence", tid, addr,
                "commit-phase writeback with no threadfence since lock "
                "acquisition",
            )
        if self._is_metadata(addr):
            return
        table = self._lock_table
        if table is not None:
            lock_addr = table.lock_addr_for(addr)
            if not self._mem.words[lock_addr] & 1:
                self._violate(
                    "unlocked_write", tid, addr,
                    "writeback while version-lock %d (addr %d) is free"
                    % (table.index_of(addr), lock_addr),
                )
        elif self._seq_addr is not None:
            if self._mem.words[self._seq_addr] % 2 == 0:
                self._violate(
                    "unlocked_write", tid, addr,
                    "writeback while the sequence lock is even (unheld)",
                )

    def _check_metadata_publish(self, tid, addr, value):
        """``torn_version``: a LOCKS-phase store publishing impossible
        metadata.  Calibrated against every legitimate release path:

        * version-lock releases either restore the pre-acquisition word
          or publish ``version << 1`` with ``version <= clock`` (the
          clock was incremented first), so an *unlocked* word whose
          version exceeds the global clock names a commit that never
          happened;
        * the only VBV sequence-lock store is the release
          ``snapshot + 2`` over the held (odd) ``snapshot + 1``, i.e.
          exactly ``current + 1``;
        * CGL/EGPGV mutex releases store exactly 0.
        """
        table = self._lock_table
        if table is not None and table.base <= addr < table.base + table.num_locks:
            if value & 1:
                return
            clock_addr = self._clock_addr
            version = value >> 1
            if clock_addr is not None and version > self._mem.words[clock_addr]:
                self._violate(
                    "torn_version", tid, addr,
                    "lock release published version %d beyond the global "
                    "clock (%d)" % (version, self._mem.words[clock_addr]),
                )
            return
        if addr == self._seq_addr:
            current = self._mem.words[addr]
            if value != current + 1:
                self._violate(
                    "torn_version", tid, addr,
                    "sequence-lock store of %d over %d (release must "
                    "publish current + 1)" % (value, current),
                )
            return
        if addr == self._cgl_lock_addr and value != 0:
            self._violate(
                "torn_version", tid, addr,
                "coarse-grain lock release stored %d (must store 0)" % value,
            )

    # ------------------------------------------------------------------
    # tx_read seam (raised by TxThread._note_real_read)
    # ------------------------------------------------------------------
    def on_tx_read(self, tx, addr):
        self.now = tx.tc.cycles_total
        writes = getattr(tx, "writes", None)
        if writes is not None and addr in writes:
            self._violate(
                "read_own_write", tx.tc.tid, addr,
                "global read of an address in the transaction's own write "
                "buffer (should serve the buffered value)",
            )

    # ------------------------------------------------------------------
    # Kernel-exit checks (host-side metadata inspection)
    # ------------------------------------------------------------------
    def check_kernel_exit(self):
        """Run the at-exit invariants; returns the violation list."""
        mem = self._mem
        table = self._lock_table
        if table is not None:
            mutex = self._mutex_locks
            leaked = [
                index
                for index in range(table.num_locks)
                if mem.words[table.base + index] & 1
                or (mutex and mem.words[table.base + index])
            ]
            if leaked:
                shown = ", ".join(str(i) for i in leaked[:8])
                if len(leaked) > 8:
                    shown += ", ..."
                self._violate(
                    "lock_leak", None, table.base + leaked[0],
                    "%d version-lock(s) still held at kernel exit (indices "
                    "%s)" % (len(leaked), shown),
                )
        seq_addr = self._seq_addr
        if seq_addr is not None:
            seq = mem.words[seq_addr]
            if seq % 2:
                self._violate(
                    "lock_leak", None, seq_addr,
                    "sequence lock still odd (%d) at kernel exit" % seq,
                )
            elif seq // 2 != self._writer_commits:
                self._violate(
                    "clock_monotonicity", None, seq_addr,
                    "sequence lock %d implies %d writer commits, observed %d"
                    % (seq, seq // 2, self._writer_commits),
                )
        cgl_lock = self._cgl_lock_addr
        if cgl_lock is not None and mem.words[cgl_lock]:
            self._violate(
                "lock_leak", None, cgl_lock,
                "coarse-grain lock still held (%d) at kernel exit"
                % mem.words[cgl_lock],
            )
        clock_addr = self._clock_addr
        if clock_addr is not None:
            expected = (
                self._total_commits
                if self._count_all_commits
                else self._writer_commits
            )
            actual = mem.words[clock_addr]
            if actual != expected:
                self._violate(
                    "clock_monotonicity", None, clock_addr,
                    "global clock is %d but %d clock-advancing commits were "
                    "observed" % (actual, expected),
                )
        return self.violations
