"""Kernel launch results.

:class:`KernelResult` aggregates what the evaluation harness needs from one
kernel launch: the simulated cycle count (kernel time), the merged per-phase
cycle breakdown (Figure 5), and the merged operation counters.
"""

from repro.common.stats import Counters, PhaseCycles


class KernelResult:
    """Aggregated outcome of one kernel launch."""

    __slots__ = (
        "kernel_name",
        "cycles",
        "sm_cycles",
        "steps",
        "threads",
        "phases",
        "counters",
        "thread_cycles_total",
        "thread_cycles_in_tx",
        "mem_txns",
        "bandwidth_cycles",
        "device_cycles",
        "schedule_trace",
    )

    def __init__(self, kernel_name, cycles, sm_cycles, steps):
        self.kernel_name = kernel_name
        self.cycles = cycles
        self.sm_cycles = sm_cycles
        self.steps = steps
        self.threads = 0
        self.phases = PhaseCycles()
        self.counters = Counters()
        self.thread_cycles_total = 0
        self.thread_cycles_in_tx = 0
        self.mem_txns = 0
        self.bandwidth_cycles = 0
        # per-device cycle domains of a multi-device launch, else None
        self.device_cycles = None
        # ScheduleTrace of the launch when recorded, else None
        self.schedule_trace = None

    def absorb_thread(self, tc):
        """Merge one thread context's accounting into the aggregate."""
        self.threads += 1
        self.phases.merge(tc.phase_cycles)
        self.counters.merge(tc.counters)
        self.thread_cycles_total += tc.cycles_total
        self.thread_cycles_in_tx += tc.cycles_in_tx

    def tx_time_fraction(self):
        """Fraction of thread-latency cycles spent inside transactions
        (the paper's Table 1 "TX time" column)."""
        if self.thread_cycles_total == 0:
            return 0.0
        return self.thread_cycles_in_tx / self.thread_cycles_total

