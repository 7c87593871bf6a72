"""The multi-device launcher: N simulated GPUs, one deterministic launch.

:class:`MultiDevice` extends :class:`~repro.gpu.scheduler.Device` to a
topology of ``config.devices`` GPUs with ``config.num_sms`` SMs each.  It
keeps :meth:`Device.launch <repro.gpu.scheduler.Device.launch>` and its one
issue loop, and overrides only what differs:

* the SM count — blocks distribute round-robin over the *global* SM list
  (device ``d`` owns indices ``[d*num_sms, (d+1)*num_sms)``, so block ``i``
  runs on device ``(i % total_sms) // num_sms``), and one issue round
  visits the SMs of every device in global index order.  Every
  cross-device effect (a remote read, a remote lock CAS, a remote commit
  write-back) happens inside some turn, so the inter-device message order
  is a pure function of the schedule: deterministic and replayable from a
  recorded trace;
* the thread context — whichever class the launch chose is wrapped by the
  multi-GPU accounting mixin (:mod:`repro.multigpu.ctx`);
* the roofline, the telemetry publication and the trace metadata, below.

Cycle domains: each device has its own DRAM roofline, so kernel time is
``max`` over devices of ``max(device SM cycles, device mem_txns *
dram_txn_cost)`` — remote accesses burn *link* occupancy at the issuing
SM (``warp.step_extra``) and DRAM bandwidth at the home device's memory
system is modeled by where the transaction is counted (the issuing SM;
link-side serialization dominates the remote path, which is what the
link_txn_cost models).

Construction is normally via :func:`repro.gpu.make_device`, which returns
a plain ``Device`` for single-device configs so every existing call site
gains the ``devices`` axis without a conditional of its own.
"""

from repro.gpu.config import GpuConfig
from repro.gpu.errors import LaunchError
from repro.gpu.scheduler import Device
from repro.multigpu.ctx import make_multigpu_ctx
from repro.multigpu.topology import Topology


class MultiDevice(Device):
    """A topology of simulated GPUs behind the single-device interface.

    Launch results additionally carry ``device_cycles`` (per-device cycle
    domains) and the merged ``mg.*`` traffic counters.
    """

    def __init__(self, config=None, telemetry=None):
        super().__init__(config or GpuConfig(devices=2), telemetry)
        config = self.config
        if config.devices < 2:
            raise LaunchError(
                "MultiDevice requires config.devices >= 2, got %d "
                "(use repro.gpu.make_device to pick the launcher)"
                % config.devices
            )
        self.topology = Topology(
            config.devices, config.link_model, config.device_interleave_words
        )

    @property
    def total_sms(self):
        return self.config.num_sms * self.config.devices

    def _ctx_factory(self, ctx_cls, extra):
        mg_cls = make_multigpu_ctx(ctx_cls)
        topology = self.topology
        num_sms = self.config.num_sms
        total_sms = self.total_sms

        def ctx_factory(tid, lane_id, warp, block, mem, cfg):
            tc = mg_cls(tid, lane_id, warp, block, mem, cfg, *extra)
            tc._mg_init(topology, (block.index % total_sms) // num_sms)
            return tc

        return ctx_factory

    def _roofline(self, sms):
        # each device serves only its own SMs' traffic: the roofline that
        # could bind the launch is the busiest device's memory system
        num_sms = self.config.num_sms
        dram = self.config.costs.dram_txn_cost
        device_cycles = []
        bandwidth_cycles = 0
        for lo in range(0, len(sms), num_sms):
            device_sms = sms[lo:lo + num_sms]
            device_bandwidth = sum(sm.mem_txns for sm in device_sms) * dram
            bandwidth_cycles = max(bandwidth_cycles, device_bandwidth)
            device_cycles.append(
                max(max(sm.cycles for sm in device_sms), device_bandwidth)
            )
        return max(device_cycles), bandwidth_cycles, device_cycles

    def _publish(self, tel, result, sms):
        """Per-device tracks + multigpu.* traffic metrics."""
        super()._publish(tel, result, sms)
        registry = tel.registry
        for d, cycles in enumerate(result.device_cycles):
            registry.set_gauge("multigpu.d%d.cycles" % d, cycles)
        counters = result.counters.as_dict()
        for name, value in counters.items():
            if name.startswith("mg."):
                registry.add("multigpu." + name[3:], value)
        registry.set_gauge("multigpu.devices", self.config.devices)

    def _trace_meta(self, result):
        meta = super()._trace_meta(result)
        meta["devices"] = self.config.devices
        return meta
