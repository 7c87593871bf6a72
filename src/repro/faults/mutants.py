"""The seeded protocol-bug corpus (mutants).

Each :class:`Mutant` is a named, documented protocol bug.  It is a
generated subclass of a runtime's transaction class whose buggy methods
override the live ones (:meth:`Mutant.subclass`, built once per
transaction class), installed as the ``tx_class`` of *one runtime
instance*: that runtime's threads run the bug, and the shared classes are
never touched, so mutants are safe to apply inside a process that also
runs clean baselines.

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

A buggy method is an *edit of the live one*, never a copy: each mutant
lists ``edits`` of ``(method, old snippet, new snippet)``, and the new
snippet carries the seeded defect's ``# BUG:`` comment.  The method is
rebuilt from the source of the transaction class's live method, so a
mutant keeps everything else (costs, stats, yields, observer seams) and
detection is attributable to the defect alone.  Every ``old`` snippet
must occur in that source exactly once; a runtime refactor that moves
one fails loudly instead of leaving a stale mutant behind.
"""

import inspect
import sys
import textwrap


class Mutant:
    """One seeded protocol bug.

    ``edits`` are ``(method, old, new)`` source edits of the transaction
    thread's live methods (several may edit one method, applied in
    order); ``runtime_attrs`` overrides attributes of the runtime it is
    applied to; ``workload_params`` are campaign workload-parameter
    overrides that raise the collision density a data race needs to
    manifest.
    """

    def __init__(self, name, variants, description, expected, edits=(),
                 runtime_attrs=None, workload_params=None):
        self.name = name
        self.variants = tuple(variants)
        self.description = description
        self.expected = tuple(expected)
        self.edits = tuple(edits)
        self.runtime_attrs = dict(runtime_attrs or {})
        self.workload_params = dict(workload_params or {})
        # transaction class -> its mutated subclass
        self._subclasses = {}

    def subclass(self, tx_class):
        """``tx_class`` with this mutant's edits: a subclass of the same
        name whose edited methods override the live ones.

        Each method is resolved on ``tx_class`` (so inherited methods are
        edited where they are defined), its source edited, and the result
        compiled in the defining module's globals; built once per class.
        Raises ``ValueError`` when an ``old`` snippet does not occur in the
        source exactly once.
        """
        subclass = self._subclasses.get(tx_class)
        if subclass is None:
            sources = {}
            for method, old, new in self.edits:
                if method not in sources:
                    sources[method] = inspect.getsource(
                        getattr(tx_class, method))
                count = sources[method].count(old)
                if count != 1:
                    raise ValueError(
                        "mutant %r: edit of %s.%s matches its source %d "
                        "times, not once" % (
                            self.name, tx_class.__name__, method, count))
                sources[method] = sources[method].replace(old, new)
            methods = {}
            for method, source in sources.items():
                module = sys.modules[getattr(tx_class, method).__module__]
                namespace = {}
                exec(compile(textwrap.dedent(source),
                             "<mutant %s>" % self.name, "exec"),
                     vars(module), namespace)
                methods[method] = namespace[method]
            subclass = type(tx_class.__name__, (tx_class,), methods)
            self._subclasses[tx_class] = subclass
        return subclass

    def apply(self, runtime):
        """Install this mutant on ``runtime``: its ``tx_class`` becomes
        :meth:`subclass` of the runtime's and ``runtime_attrs`` are set,
        on this instance only."""
        if getattr(runtime, "_mutant", None) is not None:
            raise RuntimeError(
                "runtime already carries mutant %r" % runtime._mutant.name
            )
        if runtime.name not in self.variants:
            raise ValueError(
                "mutant %r targets %s, not %r"
                % (self.name, "/".join(self.variants), runtime.name)
            )
        attrs = dict(self.runtime_attrs,
                     tx_class=self.subclass(runtime.tx_class))
        for attr, value in attrs.items():
            setattr(runtime, attr, value)
        runtime._mutant = self
        return runtime


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


# ======================================================================
# The corpus.  Snippets match the live source from their first character
# (indentation is left in place); each new snippet marks its defect with
# "# BUG:".
# ======================================================================

#: the commit-time TBV verdict thrown away (both TBV mutants)
_DISCARD_TBV_VERDICT = (
    "_get_locks_and_tbv", "return True",
    "self.pass_tbv = True  # BUG: TBV verdict discarded\n        return True",
)

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
            edits=[("_post_validation", "while True:",
                    "return True  # BUG: stale reads never re-checked\n"
                    "        while True:"),
                   _DISCARD_TBV_VERDICT],
            workload_params={"array_size": 16},
        ),
        Mutant(
            "skip-tbv-validation",
            variants=("tbv-sorting",),
            description="pure-TBV variant ignores stale stripe versions at "
                        "read time and discards the commit-time TBV verdict",
            expected=("oracle", "fuzzer"),
            edits=[("tx_read", "if version > self.snapshot:",
                    "if False:  # BUG: no staleness check (Alg. 3 line 31)"),
                   _DISCARD_TBV_VERDICT],
            workload_params={"array_size": 16},
        ),
        Mutant(
            "unsorted-lock-acquisition",
            variants=("hv-sorting",),
            description="encounter-order lock log with unbounded retries: "
                        "crossed lockstep transactions livelock (paper "
                        "section 2.2)",
            expected=("oracle", "fuzzer"),
            # BUG: encounter-order lock logs drop the paper's global
            # acquisition order; crossed lockstep transactions retry
            # forever (section 2.2)
            runtime_attrs={"sort_locks": False,
                           "max_lock_attempts": 10 ** 9, "abort_jitter": 0},
            workload_params={"array_size": 4, "actions_per_tx": 4},
        ),
        Mutant(
            "vbv-snapshot-off-by-one",
            variants=("vbv",),
            description="VBV snapshots an odd (writer-mid-commit) sequence "
                        "value: reads during writeback validate and a commit "
                        "CAS can steal the held sequence lock",
            expected=("fuzzer",),
            edits=[("tx_begin",
                    "yield even.arm(runtime.seq_addr, 1, Phase.INIT)",
                    "yield even.arm(runtime.seq_addr, 0, Phase.INIT)"
                    "  # BUG: mask 0, an odd sequence is snapshotted")],
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
            edits=[("_validate", "for addr, logged in self.reads:",
                    "return True  # BUG: stale reads never re-checked\n"
                    "        for addr, logged in self.reads:")],
            workload_params={"array_size": 8},
        ),
        Mutant(
            "missing-writeback-fence",
            variants=("optimized",),
            description="the threadfence between lock acquisition and data "
                        "writeback (Algorithm 3 line 79) is removed",
            expected=("sanitizer",),
            edits=[("tx_commit",
                    "tc.fence(Phase.COMMIT)\n        yield\n        gwrite",
                    "# BUG: no fence before the writeback\n        gwrite")],
        ),
        Mutant(
            "lost-lock-release",
            variants=("hv-sorting",),
            description="the last acquired version-lock is never released: "
                        "its stripe stays locked for the rest of the kernel",
            expected=("sanitizer", "oracle"),
            edits=[("_release_and_update_locks", "in self.locklog:",
                    "in list(self.locklog)[:-1]:  # BUG: last lock kept")],
        ),
        Mutant(
            "forgotten-version-update",
            variants=("hv-sorting",),
            description="released locks keep their pre-commit version word, "
                        "so timestamp validation never sees new commits",
            expected=("oracle", "fuzzer"),
            edits=[("_release_and_update_locks",
                    "new_word = new_version_word",
                    "new_word = held[entry.lock_id]  # BUG: old version")],
            workload_params={"array_size": 16},
        ),
        Mutant(
            "dirty-writes",
            variants=("hv-sorting",),
            description="speculative writes also land in global memory at "
                        "encounter time, unlocked and unrecoverable on abort",
            expected=("oracle",),
            edits=[("tx_write", "return\n",
                    "tc.gwrite(addr, value, Phase.NATIVE)  # BUG: unlocked\n"
                    "        yield\n        return\n")],
            workload_params={"array_size": 16},
        ),
        Mutant(
            "read-own-write-incoherence",
            variants=("hv-sorting",),
            description="the write-set lookup in the read barrier is gone: "
                        "reads after own buffered writes return stale global "
                        "values",
            expected=("sanitizer",),
            edits=[("tx_read", "if self.bloom.might_contain(addr):",
                    "if False:  # BUG: own writes never looked up")],
            workload_params={"array_size": 4, "actions_per_tx": 8},
        ),
        Mutant(
            "cgl-no-lock",
            variants=("cgl",),
            description="CGL critical sections start without acquiring the "
                        "global lock: all sections run concurrently",
            expected=("oracle",),
            edits=[("tx_begin",
                    "yield acquire.arm(runtime.lock_addr, Phase.LOCKS)",
                    "tc.local_op(Phase.LOCKS)  # BUG: the lock is never taken"
                    "\n        yield\n        return")],
            workload_params={"array_size": 4},
        ),
        Mutant(
            "clock-stuck",
            variants=("hv-backoff",),
            description="commit reads the global clock instead of atomically "
                        "advancing it: versions repeat and the clock never "
                        "moves",
            expected=("sanitizer",),
            edits=[("tx_commit", "version = tc.atomic_inc(",
                    "# BUG: the clock is read, never advanced\n"
                    "        version = tc.gread_l2(")],
        ),
        Mutant(
            "egpgv-release-before-writeback",
            variants=("egpgv",),
            description="EGPGV releases its encounter-time locks before the "
                        "buffered writes reach memory",
            expected=("sanitizer",),
            edits=[("tx_commit", "yield\n        for addr",
                    "yield\n        yield from self._release_all()"
                    "  # BUG: before the writeback\n        for addr"),
                   ("tx_commit",
                    "yield from self._release_all()\n        self._leave",
                    "self._leave")],
        ),
    )
}
