"""Workload interface shared by all six evaluation programs."""


class KernelSpec:
    """One transactional kernel launch of a workload."""

    __slots__ = ("name", "kernel", "grid", "block", "args")

    def __init__(self, name, kernel, grid, block, args=()):
        self.name = name
        self.kernel = kernel
        self.grid = grid
        self.block = block
        self.args = args


class Workload:
    """Base class: allocate state, emit kernels, verify invariants.

    Lifecycle::

        workload = RandomArray(...)
        workload.setup(device)          # allocations
        for spec in workload.kernels(): # one per transactional phase
            device.launch(spec.kernel, spec.grid, spec.block,
                          args=spec.args, attach=runtime.attach)
        workload.verify(device, runtime)

    ``shared_data_size`` is the amount of transactionally shared data — the
    quantity the paper's STM-Optimized counts "before transaction kernels
    start" to pick HV or TBV.
    """

    #: short name used by the harness and reports ("ra", "ht", ...)
    name = "abstract"
    #: long name as in the paper
    title = "abstract workload"

    def setup(self, device):
        """Allocate device state; called once before any kernel."""
        raise NotImplementedError

    def kernels(self):
        """Return the list of :class:`KernelSpec` to launch, in order."""
        raise NotImplementedError

    @property
    def shared_data_size(self):
        """Words of transactionally shared data (STM-Optimized's input)."""
        raise NotImplementedError

    def expected_commits(self):
        """Total transactions the workload commits across all kernels."""
        raise NotImplementedError

    def verify(self, device, runtime):
        """Assert the workload's atomicity invariant on final memory."""
        raise NotImplementedError
