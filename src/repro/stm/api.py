"""Public STM façade: configuration, runtime registry, transaction driver.

Typical use (the paper's Figure 1 pattern)::

    from repro.gpu import Device
    from repro.stm import StmConfig, make_runtime, run_transaction

    device = Device()
    runtime = make_runtime("optimized", device,
                           StmConfig(num_locks=1024, shared_data_size=8192))

    def kernel(tc, array, size):
        def body(stm):
            value = yield from stm.tx_read(array + 0)
            if not stm.is_opaque:      # the Figure 1 opacity check
                return False
            yield from stm.tx_write(array + 1, value + 1)
            return True

        yield from run_transaction(tc, body)

    device.launch(kernel, grid_blocks, block_threads, args=(array, size),
                  attach=runtime.attach)
"""

from dataclasses import dataclass

from repro.stm.runtime.cgl import CglRuntime
from repro.stm.runtime.egpgv import EgpgvRuntime
from repro.stm.runtime.hv_backoff import HvBackoffRuntime
from repro.stm.runtime.locksorting import LockSortingRuntime
from repro.stm.runtime.optimized import OptimizedRuntime
from repro.stm.runtime.vbv import VbvRuntime

#: Names accepted by :func:`make_runtime`, as evaluated in the paper.
STM_VARIANTS = (
    "cgl",
    "egpgv",
    "vbv",
    "tbv-sorting",
    "hv-sorting",
    "hv-backoff",
    "optimized",
)

#: Extensions beyond the paper's evaluated set: the adaptive HV/TBV
#: switcher (the paper's stated future work) and the section 2.2
#: strawman with encounter-time lock-sorting removed — registered so the
#: livelock-classification tests and the supervision layer's failure
#: taxonomy can drive it through the ordinary harness paths
#: (``make_runtime`` also accepts the short alias ``unsorted``).
EXTENSION_VARIANTS = ("hv-adaptive", "hv-unsorted-nobackoff")


@dataclass
class StmConfig:
    """Knobs shared by the STM runtimes.

    ``num_locks`` is the global version-lock table size (the paper sweeps
    1M-64M; scaled geometries use Ki).  ``shared_data_size`` is the
    shared-data amount hint that drives STM-Optimized's HV/TBV selection.
    """

    num_locks: int = 1024
    stripe_words: int = 1
    shared_data_size: int = 0
    lock_log_buckets: int = 16
    max_lock_attempts: int = 16
    coalesced_logs: bool = True
    record_history: bool = False
    # EGPGV static capacities
    egpgv_max_blocks: int = 64
    egpgv_max_threads_per_block: int = 128
    egpgv_max_accesses: int = 256


def make_runtime(name, device, config=None):
    """Instantiate the STM variant ``name`` on ``device``.

    ``name`` is one of :data:`STM_VARIANTS`; ``config`` defaults to
    ``StmConfig()``.
    """
    config = config or StmConfig()
    common = dict(
        num_locks=config.num_locks,
        stripe_words=config.stripe_words,
        lock_log_buckets=config.lock_log_buckets,
        max_lock_attempts=config.max_lock_attempts,
        coalesced_logs=config.coalesced_logs,
        record_history=config.record_history,
    )
    if name == "cgl":
        return CglRuntime(device, record_history=config.record_history)
    if name == "egpgv":
        return EgpgvRuntime(
            device,
            num_locks=config.num_locks,
            max_blocks=config.egpgv_max_blocks,
            max_threads_per_block=config.egpgv_max_threads_per_block,
            max_accesses=config.egpgv_max_accesses,
            coalesced_logs=config.coalesced_logs,
            record_history=config.record_history,
        )
    if name == "vbv":
        return VbvRuntime(
            device,
            coalesced_logs=config.coalesced_logs,
            record_history=config.record_history,
        )
    if name == "tbv-sorting":
        return LockSortingRuntime(device, use_vbv=False, **common)
    if name == "hv-sorting":
        return LockSortingRuntime(device, use_vbv=True, **common)
    if name == "hv-backoff":
        return HvBackoffRuntime(device, **common)
    if name == "hv-adaptive":
        from repro.stm.runtime.adaptive import HvAdaptiveRuntime

        return HvAdaptiveRuntime(device, **common)
    if name in ("unsorted", "hv-unsorted-nobackoff"):
        from repro.stm.runtime.unsorted import UnsortedNoBackoffRuntime

        return UnsortedNoBackoffRuntime(device, **common)
    if name == "optimized":
        return OptimizedRuntime(
            device, shared_data_size=config.shared_data_size, **common
        )
    raise ValueError(
        "unknown STM variant %r; expected one of %s"
        % (name, ", ".join(STM_VARIANTS + EXTENSION_VARIANTS))
    )


def run_transaction(tc, body, max_restarts=None, registers=None):
    """Execute ``body`` as one atomic transaction, retrying until commit.

    ``body(stm)`` is a generator receiving the thread's :class:`TxThread`;
    it returns False (or anything falsy other than None) when it observed
    ``stm.is_opaque == False`` and must be aborted — the Figure 1 pattern.
    ``max_restarts`` bounds retries for tests; None means retry forever
    (the paper's semantics: livelock freedom guarantees progress).

    ``registers`` implements the paper's register checkpointing (section
    3.2.3): a mutable dict of kernel-local variables that the body both
    reads and writes.  Its contents are checkpointed before each attempt
    and restored on abort, so a restarted body re-runs from the same local
    state — the facility the paper says a programmer or compiler inserts
    for the rare transactions that need it.
    """
    stm = tc.stm
    restarts = 0
    while True:
        checkpoint = dict(registers) if registers is not None else None
        yield from stm.tx_begin()
        outcome = yield from body(stm)
        ok = True if outcome is None else bool(outcome)
        if ok and stm.is_opaque:
            committed = yield from stm.tx_commit()
            if committed:
                return
        else:
            yield from stm.tx_abort()
        if registers is not None:
            registers.clear()
            registers.update(checkpoint)
        restarts += 1
        if max_restarts is not None and restarts > max_restarts:
            raise RuntimeError(
                "transaction of thread %d exceeded %d restarts"
                % (tc.tid, max_restarts)
            )
