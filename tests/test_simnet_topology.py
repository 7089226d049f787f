"""Tests for interconnect topologies and the MSA federation."""

import pytest

from repro.simnet import (
    CommCostModel,
    Link,
    LinkKind,
    fat_tree,
    federated,
)


def _count(topo, terminal: bool) -> int:
    """Terminal (or switch) nodes of a topology graph."""
    return sum(d.get("terminal", True) == terminal
               for _, d in topo.graph.nodes(data=True))


class TestLink:
    """A link's α-β cost, as the comm model charges it."""

    def test_transfer_time_is_alpha_beta(self):
        link = Link.of_kind(LinkKind.INFINIBAND_HDR)
        t = CommCostModel.of_kind(LinkKind.INFINIBAND_HDR).ptp(1_000_000)
        assert t == pytest.approx(link.latency_s + 1e6 / link.bandwidth_Bps)

    def test_zero_bytes_costs_latency_only(self):
        link = Link.of_kind(LinkKind.EXTOLL)
        assert CommCostModel.of_kind(LinkKind.EXTOLL).ptp(0) == link.latency_s

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            CommCostModel.of_kind(LinkKind.NVLINK).ptp(-1)

    def test_hdr_is_faster_than_edr(self):
        edr = Link.of_kind(LinkKind.INFINIBAND_EDR)
        hdr = Link.of_kind(LinkKind.INFINIBAND_HDR)
        assert hdr.bandwidth_Bps > edr.bandwidth_Bps
        assert hdr.latency_s <= edr.latency_s

    def test_nvlink_beats_pcie(self):
        nv = Link.of_kind(LinkKind.NVLINK)
        pcie = Link.of_kind(LinkKind.PCIE3)
        assert nv.bandwidth_Bps > pcie.bandwidth_Bps


class TestFatTree:
    def test_node_count(self):
        topo = fat_tree(40, LinkKind.INFINIBAND_EDR)
        assert _count(topo, terminal=True) == 40
        # 3 leaves + 1 spine
        assert _count(topo, terminal=False) == 4

    def test_same_leaf_two_hops(self):
        topo = fat_tree(32, LinkKind.INFINIBAND_EDR)
        assert len(topo.path(("node", 0), ("node", 1))) - 1 == 2

    def test_cross_leaf_four_hops(self):
        topo = fat_tree(32, LinkKind.INFINIBAND_EDR)
        assert len(topo.path(("node", 0), ("node", 20))) - 1 == 4

    def test_uplink_not_bottleneck(self):
        # The fat uplink should leave the access link as the bottleneck.
        topo = fat_tree(32, LinkKind.INFINIBAND_EDR)
        access_bw = Link.of_kind(LinkKind.INFINIBAND_EDR).bandwidth_Bps
        assert topo.path_bandwidth(("node", 0), ("node", 20)) == access_bw

    def test_transfer_time_self_is_zero(self):
        topo = fat_tree(8, LinkKind.INFINIBAND_EDR)
        assert topo.transfer_time(("node", 3), ("node", 3), 1e9) == 0.0

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            fat_tree(0, LinkKind.INFINIBAND_EDR)


class TestFederation:
    def _msa(self):
        return federated({
            "cm": fat_tree(8, LinkKind.INFINIBAND_EDR, name="cm"),
            "esb": fat_tree(16, LinkKind.INFINIBAND_HDR, name="esb"),
        })

    def test_terminals_preserved(self):
        topo = self._msa()
        assert _count(topo, terminal=True) == 24

    def test_intra_module_path_avoids_federation(self):
        topo = self._msa()
        path = topo.path(("cm", ("node", 0)), ("cm", ("node", 1)))
        assert ("federation", 0) not in path

    def test_inter_module_path_crosses_federation(self):
        topo = self._msa()
        path = topo.path(("cm", ("node", 0)), ("esb", ("node", 0)))
        assert ("federation", 0) in path

    def test_inter_module_slower_than_intra(self):
        topo = self._msa()
        intra = topo.transfer_time(("cm", ("node", 0)), ("cm", ("node", 1)), 1e8)
        inter = topo.transfer_time(("cm", ("node", 0)), ("esb", ("node", 0)), 1e8)
        assert inter > intra

    def test_empty_federation_rejected(self):
        with pytest.raises(ValueError):
            federated({})


