"""Multi-device topology: inter-device link costs + the home-device map.

A :class:`Topology` describes N simulated GPUs joined by an interconnect
with latency tiers (same-switch vs. cross-switch, the MGSim/MGMark shape:
devices hang off switches, traffic crossing a switch boundary pays more)
and partitions the *one* flat global address space across them: every
``interleave_words``-sized line of addresses has a deterministic home
device, so ``GlobalMemory`` words — and with them the ``GlobalLockTable``
stripes, the global clock and the ledger accounts, which all live in that
same address space — shard across devices with no per-structure plumbing.

The home function is pure address arithmetic
(``(addr >> log2(interleave)) % devices``), so any layer (thread contexts
charging link costs, workloads building per-device account buckets,
diagnostics) computes the same owner for the same word.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class LinkModel:
    """Cycle costs of one inter-device transfer.

    ``latency(src, dst)`` is charged to the issuing lane (it waits for the
    reply); ``link_txn_cost`` is the occupancy each remote operation adds
    to the warp step — the serialization pressure of the link itself.
    Devices are grouped ``devices_per_switch`` to a switch: traffic inside
    a switch group pays ``same_switch_latency``, traffic across groups
    pays ``cross_switch_latency``.
    """

    same_switch_latency: int = 40
    cross_switch_latency: int = 120
    link_txn_cost: int = 8
    devices_per_switch: int = 4

    def latency(self, src, dst):
        """Lane-latency cycles of one ``src`` -> ``dst`` transfer."""
        if src == dst:
            return 0
        if src // self.devices_per_switch == dst // self.devices_per_switch:
            return self.same_switch_latency
        return self.cross_switch_latency


#: Named link profiles: the ratios matter, not the absolute numbers —
#: "nvlink" is a tightly-coupled fabric a few L2 hits away, "pcie" a
#: host-mediated hop costing several DRAM transactions.
LINK_PRESETS = {
    "nvlink": LinkModel(40, 120, 8, 4),
    "pcie": LinkModel(150, 400, 24, 2),
}


def make_link_model(spec):
    """Resolve a link-model spec to a :class:`LinkModel`.

    Accepts ``None`` (defaults), a :class:`LinkModel`, a kwargs dict, a
    preset name (``"nvlink"``, ``"pcie"``), ``"uniform:LAT"`` (every
    remote hop costs ``LAT``) or ``"switched:SAME,CROSS[,PER_SWITCH]"``.
    """
    if spec is None:
        return LinkModel()
    if isinstance(spec, LinkModel):
        return spec
    if isinstance(spec, dict):
        return LinkModel(**spec)
    if isinstance(spec, str):
        name, _, rest = spec.partition(":")
        if name in LINK_PRESETS and not rest:
            return LINK_PRESETS[name]
        try:
            if name == "uniform":
                latency = int(rest)
                return LinkModel(latency, latency)
            if name == "switched":
                parts = [int(p) for p in rest.split(",")]
                if len(parts) == 2:
                    return LinkModel(parts[0], parts[1])
                if len(parts) == 3:
                    return LinkModel(parts[0], parts[1], devices_per_switch=parts[2])
        except ValueError:
            pass
        raise ValueError(
            "unknown link model spec %r (expected a preset %s, "
            "'uniform:LAT' or 'switched:SAME,CROSS[,PER_SWITCH]')"
            % (spec, "/".join(sorted(LINK_PRESETS)))
        )
    raise TypeError("link model spec must be None, str, dict or LinkModel, got %r" % (spec,))


class Topology:
    """N devices, a link model, and the deterministic home-device map."""

    __slots__ = ("devices", "link_model", "interleave_words", "_shift", "_rows")

    def __init__(self, devices, link_model=None, interleave_words=32):
        if devices < 1:
            raise ValueError("topology needs at least 1 device, got %d" % devices)
        if interleave_words < 1 or interleave_words & (interleave_words - 1):
            raise ValueError(
                "device_interleave_words must be a positive power of two, got %d"
                % interleave_words
            )
        self.devices = devices
        self.link_model = make_link_model(link_model)
        self.interleave_words = interleave_words
        self._shift = interleave_words.bit_length() - 1
        # precomputed latency matrix: home lookup + one tuple index per
        # remote access on the hot path
        self._rows = [
            tuple(self.link_model.latency(src, dst) for dst in range(devices))
            for src in range(devices)
        ]

    def home_of(self, addr):
        """Home device of global address ``addr``."""
        return (addr >> self._shift) % self.devices

    def latency(self, src, dst):
        """Link latency between two devices (0 on-device)."""
        return self._rows[src][dst]

    def latency_row(self, src):
        """All-destination latency tuple for ``src`` (hot-path cache)."""
        return self._rows[src]

    def describe(self):
        """JSON-friendly summary (survival-map / run_info provenance)."""
        link = self.link_model
        return {
            "devices": self.devices,
            "interleave_words": self.interleave_words,
            "same_switch_latency": link.same_switch_latency,
            "cross_switch_latency": link.cross_switch_latency,
            "link_txn_cost": link.link_txn_cost,
            "devices_per_switch": link.devices_per_switch,
        }
