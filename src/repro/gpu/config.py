"""Simulator configuration and the cycle cost model.

The defaults model the paper's testbed, an NVIDIA C2070 Fermi GPU: 14
streaming multiprocessors, 32-lane warps, bounded warp/block residency per
SM.  Cycle costs are a throughput-flavoured abstraction (documented in
DESIGN.md section 4): the absolute numbers are not Fermi nanoseconds, but the
*ratios* — off-chip memory two orders of magnitude above instruction issue,
atomics several times a regular access — are what shapes every relative
result the paper reports.
"""

from dataclasses import dataclass, field


@dataclass
class CostModel:
    """Cycle costs charged by the warp stepper.

    ``issue_cost`` is charged once per distinct (operation kind, phase) group
    in a warp step — the divergence proxy.  ``mem_txn_cost`` is charged per
    coalesced memory transaction.  ``atomic_cost`` is charged per serialized
    same-address atomic.  Lane-local latency attribution (the Figure 5
    breakdown) uses ``mem_latency`` / ``atomic_latency`` per operation.
    """

    issue_cost: int = 4
    mem_txn_cost: int = 40
    atomic_cost: int = 60
    fence_cost: int = 8
    # Additional memory transactions of one warp instruction overlap in the
    # memory system (memory-level parallelism): the first transaction pays
    # full latency, each further line only the pipelining cost.  Without
    # this, scattered-but-parallel warps would be charged as if their lanes
    # ran serially, flattering serialized baselines.
    mem_pipeline_cost: int = 8
    # L2-cached reads: the global STM metadata lives in global memory but is
    # cached at the L2 level (paper section 4.1: "The global metadata is
    # only cached at the L2 level"), so version-lock reads and spin polls
    # cost an L2 hit, not a DRAM transaction.
    l2_read_cost: int = 10
    l2_read_latency: int = 30
    # On-chip shared memory (per-block scratchpad): near-register cost, but
    # same-bank accesses within one warp instruction serialize.
    smem_cost: int = 2
    smem_latency: int = 6
    # Device-wide DRAM throughput: every coalesced memory transaction and
    # atomic consumes this many cycles of shared bandwidth; kernel time is
    # at least total_transactions * dram_txn_cost (the roofline that keeps
    # simulated speedups from exceeding what memory bandwidth allows).
    dram_txn_cost: int = 12
    mem_latency: int = 100
    atomic_latency: int = 160
    fence_latency: int = 20
    # Local (per-thread, cached) metadata accesses: cheap when the logs use
    # the paper's coalesced organization, charged like global traffic when
    # not (the coalesced read-/write-set ablation).
    local_meta_cost: int = 2


@dataclass
class GpuConfig:
    """Geometry and behaviour switches of the simulated device."""

    warp_size: int = 32
    num_sms: int = 14
    max_warps_per_sm: int = 48
    max_blocks_per_sm: int = 8
    line_words: int = 32
    smem_banks: int = 32
    # Warp scheduling: how many consecutive steps one warp is issued before
    # the SM rotates to the next resident warp.  1 = fine-grained round
    # robin (loose interleaving, Fermi-like); larger values keep issuing one
    # warp for several steps (coarser interleaving, which changes how often
    # transactions overlap — see the scheduler-policy ablation).
    warp_steps_per_turn: int = 1
    # Warp-selection policy spec resolved by repro.sched.policy.make_policy
    # ("rr", "random:SEED", "adversarial:SEED", a policy
    # instance, or a recorded-trace dict).  "rr" preserves the historical
    # fixed round-robin issue bit-identically.  An explicit ``policy=``
    # argument to Device.launch overrides this.
    scheduler: object = "rr"
    # Capture the issue trace of every launch into a ScheduleTrace
    # (attached to the KernelResult as ``schedule_trace``), so the exact
    # interleaving can be serialized and replayed.
    record_schedule: bool = False
    # Multi-device topology: with devices > 1 the launcher built by
    # repro.gpu.make_device is a repro.multigpu MultiDevice — num_sms is
    # then the per-device SM count, link_model a spec accepted by
    # repro.multigpu.topology.make_link_model (None = defaults, a preset
    # name, "uniform:LAT", "switched:SAME,CROSS[,PER_SWITCH]", a dict or a
    # LinkModel), and global addresses interleave across devices in
    # device_interleave_words-sized lines (the home-device function).
    devices: int = 1
    link_model: object = None
    device_interleave_words: int = 32
    costs: CostModel = field(default_factory=CostModel)
    # Watchdog: launch fails with ProgressError after this many warp steps.
    max_steps: int = 20_000_000
    # Assert at most one globally-visible operation per lane resumption.
    strict_lockstep: bool = False
    # Bounds-check every memory access (slower; on in tests).
    check_bounds: bool = False

    def __post_init__(self):
        if self.warp_size < 1:
            raise ValueError("warp_size must be >= 1")
        if self.num_sms < 1:
            raise ValueError("num_sms must be >= 1")
        if self.line_words < 1:
            raise ValueError("line_words must be >= 1")
        if self.max_warps_per_sm < 1 or self.max_blocks_per_sm < 1:
            raise ValueError("SM residency limits must be >= 1")
        if self.warp_steps_per_turn < 1:
            raise ValueError("warp_steps_per_turn must be >= 1")
        if self.devices < 1:
            raise ValueError("devices must be >= 1")
        interleave = self.device_interleave_words
        if interleave < 1 or interleave & (interleave - 1):
            raise ValueError(
                "device_interleave_words must be a positive power of two, got %d"
                % interleave
            )

    def device_of(self, block_index):
        """The device block ``block_index`` runs on: blocks go round-robin
        over the global SM list, device ``d`` owning SMs ``[d*num_sms,
        (d+1)*num_sms)`` (always 0 on one device)."""
        num_sms = self.num_sms
        return (block_index % (num_sms * self.devices)) // num_sms


def small_config(warp_size=4, num_sms=2, max_steps=2_000_000):
    """A small, strict geometry: schedule exploration's
    (:func:`repro.harness.configs.explore_gpu`) and the unit tests'."""
    return GpuConfig(
        warp_size=warp_size,
        num_sms=num_sms,
        max_steps=max_steps,
        strict_lockstep=True,
        check_bounds=True,
    )
