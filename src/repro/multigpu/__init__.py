"""Multi-device STM: topology, sharded state, cross-device commit costs.

The paper evaluates GPU-STM on one device; this package extends the
simulator to a :class:`~repro.multigpu.topology.Topology` of N devices
joined by an inter-device link cost model, with the global address space
— and therefore the lock table, the global clock and every workload's
data — partitioned across devices by a deterministic home-device
function.  Cross-device reads, lock acquires and commit write-backs are
charged link costs by one :class:`~repro.multigpu.link.LinkProbe` per
device — a thread-context probe like the timeline, the sanitizer and the
fault injectors, so all of them compose with it — and ordered by the
device scheduler's one issue loop, which visits every device's SMs in
global index order, so multi-device runs stay bit-identical and
replayable like everything else in the repo.

Entry points: ``repro.gpu.make_device`` builds a
:class:`~repro.multigpu.device.MultiDevice` whenever ``GpuConfig.devices
> 1``; ``python -m repro multigpu`` drives the variant-survival sweep
(:mod:`repro.multigpu.cli`); docs/multigpu.md walks through the model.
"""

from repro.multigpu.device import MultiDevice
from repro.multigpu.link import LinkProbe
from repro.multigpu.topology import LinkModel, Topology, make_link_model

__all__ = [
    "LinkModel",
    "LinkProbe",
    "MultiDevice",
    "Topology",
    "make_link_model",
]
