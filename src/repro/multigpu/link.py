"""Cross-device access accounting: the link probe.

Kernels keep using one flat :class:`~repro.gpu.memory.GlobalMemory`; what a
multi-device launch changes is the *cost* of touching a word whose home
device (``topology.home_of``) differs from the device the issuing block
runs on.  :class:`~repro.multigpu.device.MultiDevice` builds one
:class:`LinkProbe` per device and puts it first in every thread's probe
tuple (:class:`~repro.gpu.thread.ProbedThreadCtx`), so the link cost is
charged before the operation itself and every later probe — the timeline,
the sanitizer, an injector — sees it like any other latency.

Remote cost accounting per global operation:

* ``tc.charge(phase, link_latency)`` — the lane waits for the remote
  reply; charged to the operation's phase so abort-window
  reclassification and the Figure-5 breakdown see link time like any
  other latency.  ``charge`` does not record an operation, so
  ``strict_lockstep`` stays satisfied.
* ``warp.step_extra += link_latency + link_txn_cost`` — the synchronous
  round trip stalls the warp (this is what stretches lock hold times and
  bends the survival map), and link occupancy sums across lanes into the
  warp-step cost (remote traffic does not coalesce): the summed
  ``step_extra`` that
  :meth:`~repro.gpu.thread.ThreadCtx.scattered_meta_ops` also charges.
* ``mg.*`` counters — per-kind (read/write/atomic) and per-device
  remote/local traffic, republished as ``multigpu.*`` registry metrics by
  the launcher.
"""

from repro.gpu.events import OpKind

# remote metadata (version locks, spin polls) is not served by the local
# L2: an L2 read crosses the link like any other read
_REMOTE_KEYS = {
    OpKind.READ: "mg.remote.read",
    OpKind.L2_READ: "mg.remote.read",
    OpKind.WRITE: "mg.remote.write",
    OpKind.ATOMIC: "mg.remote.atomic",
}


class LinkProbe:
    """The ``before`` seam of every thread on one device."""

    __slots__ = ("device", "_shift", "_ndev", "_lat", "_txn", "_key_remote",
                 "_key_local")

    def __init__(self, topology, device):
        self.device = device
        self._shift = topology._shift
        self._ndev = topology.devices
        self._lat = topology.latency_row(device)
        self._txn = topology.link_model.link_txn_cost
        self._key_remote = "mg.d%d.remote" % device
        self._key_local = "mg.d%d.local" % device

    def before(self, tc, kind, addr, phase):
        home = (addr >> self._shift) % self._ndev
        counters = tc.counters
        if home == self.device:
            counters.add("mg.local.ops")
            counters.add(self._key_local)
            return
        latency = self._lat[home]
        tc.charge(phase, latency)
        tc.warp.step_extra += latency + self._txn
        counters.add(_REMOTE_KEYS[kind])
        counters.add(self._key_remote)
        counters.add("mg.link.cycles", latency)
