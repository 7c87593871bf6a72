"""STM-Optimized: adaptive selection between HV and TBV (paper section 4.2).

False conflicts only arise when distinct shared words hash to the same
global version lock, i.e. when the amount of shared data exceeds the lock
table.  STM-Optimized therefore selects **hierarchical validation** when
``shared_data_size > num_locks`` and plain **timestamp-based validation**
otherwise, where value-based fallback could never pay off.  Either way it
uses encounter-time lock-sorting for livelock freedom.

The paper obtains the shared-data amount "by counting the elements of
arrays before transaction kernels start"; here the workload passes it as
``shared_data_size``.
"""

from repro.stm.runtime.locksorting import LockSortingRuntime


class OptimizedRuntime(LockSortingRuntime):
    """Adaptive HV/TBV runtime with lock-sorting."""

    name = "optimized"

    def __init__(self, device, shared_data_size, num_locks=1024, **kwargs):
        if shared_data_size < 0:
            raise ValueError("shared_data_size must be non-negative")
        kwargs.pop("use_vbv", None)  # the whole point is choosing it
        use_vbv = shared_data_size > num_locks
        super().__init__(device, num_locks=num_locks, use_vbv=use_vbv, **kwargs)
        self.shared_data_size = shared_data_size
        self.stats.add("selected_hv" if use_vbv else "selected_tbv")

    @property
    def selected(self):
        """Which validation scheme the runtime chose: ``"hv"`` or ``"tbv"``."""
        return "hv" if self.use_vbv else "tbv"

    def metric_gauges(self):
        gauges = super().metric_gauges()
        gauges["shared_data_size"] = self.shared_data_size
        gauges["selected_hv"] = int(self.selected == "hv")
        return gauges
