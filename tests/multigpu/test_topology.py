"""Topology contract: the home-device function and the link-cost tiers.

Everything in the multi-device path keys off ``home_of`` — lock table,
clock and accounts shard automatically because they live in the one
logical address space — so its determinism and interleaving shape are
API, pinned here.
"""

import pytest

from repro.multigpu import LinkModel, Topology, make_link_model
from repro.multigpu.topology import LINK_PRESETS


class TestHomeOf:
    def test_interleaves_in_blocks(self):
        topo = Topology(4, interleave_words=32)
        for addr in range(256):
            assert topo.home_of(addr) == (addr // 32) % 4

    def test_deterministic_and_in_range(self):
        topo = Topology(3, interleave_words=8)
        homes = [topo.home_of(addr) for addr in range(1024)]
        assert homes == [topo.home_of(addr) for addr in range(1024)]
        assert set(homes) == {0, 1, 2}

    def test_single_device_owns_everything(self):
        topo = Topology(1)
        assert {topo.home_of(addr) for addr in range(4096)} == {0}

    def test_interleave_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            Topology(2, interleave_words=24)
        with pytest.raises(ValueError):
            Topology(0)


class TestLinkModel:
    def test_same_device_is_free(self):
        topo = Topology(4, LinkModel(40, 120, 8, 2))
        for device in range(4):
            assert topo.latency_row(device)[device] == 0

    def test_switch_tiers(self):
        model = LinkModel(same_switch_latency=40, cross_switch_latency=120,
                          link_txn_cost=8, devices_per_switch=2)
        topo = Topology(4, model)
        assert topo.latency_row(0)[1] == 40    # same switch (devices 0,1)
        assert topo.latency_row(2)[3] == 40    # same switch (devices 2,3)
        assert topo.latency_row(0)[2] == 120   # cross switch
        assert topo.latency_row(1)[3] == 120

    def test_latency_row_matches_pointwise(self):
        topo = Topology(4, LinkModel(40, 120, 8, 2))
        for src in range(4):
            row = topo.latency_row(src)
            assert list(row) == [topo.link_model.latency(src, dst)
                                 for dst in range(4)]


class TestMakeLinkModel:
    def test_none_gives_default(self):
        model = make_link_model(None)
        assert isinstance(model, LinkModel)

    def test_presets(self):
        assert make_link_model("nvlink") is LINK_PRESETS["nvlink"]
        assert make_link_model("pcie") is LINK_PRESETS["pcie"]

    def test_uniform_spec(self):
        model = make_link_model("uniform:60")
        assert model.same_switch_latency == 60
        assert model.cross_switch_latency == 60

    def test_switched_spec(self):
        model = make_link_model("switched:40,160,2")
        assert model.same_switch_latency == 40
        assert model.cross_switch_latency == 160
        assert model.devices_per_switch == 2

    def test_dict_spec(self):
        model = make_link_model({"same_switch_latency": 10,
                                 "cross_switch_latency": 20})
        assert model.same_switch_latency == 10
        assert model.cross_switch_latency == 20

    def test_passthrough_and_errors(self):
        model = LinkModel(1, 2, 3, 4)
        assert make_link_model(model) is model
        with pytest.raises(ValueError):
            make_link_model("warp-drive")
        with pytest.raises(TypeError):
            make_link_model(3.14)
