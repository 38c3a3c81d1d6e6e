"""Tests for the Titan topology model."""

import pytest

from repro.titan import TOTAL_NODES, NodeLocation, TitanTopology
from repro.titan.topology import NODES_PER_CABINET, TOTAL_CABINETS


class TestConstants:
    def test_paper_figures(self):
        # §II-B: 4 nodes/blade, 8 blades/cage, 3 cages/cabinet,
        # 200 cabinets in 25 rows x 8 columns.
        assert NODES_PER_CABINET == 96
        assert TOTAL_CABINETS == 200
        assert TOTAL_NODES == 19_200


class TestNodeLocation:
    def test_cname_roundtrip(self):
        loc = NodeLocation(col=3, row=17, cage=1, slot=5, node=2)
        assert loc.cname == "c3-17c1s5n2"
        assert NodeLocation.from_cname("c3-17c1s5n2") == loc

    def test_invalid_cname(self):
        for bad in ("c3-17c1s5", "x3-17c1s5n2", "c3-17c1s5n2x", ""):
            with pytest.raises(ValueError):
                NodeLocation.from_cname(bad)

    def test_coordinate_validation(self):
        with pytest.raises(ValueError):
            NodeLocation(col=8, row=0, cage=0, slot=0, node=0)
        with pytest.raises(ValueError):
            NodeLocation(col=0, row=25, cage=0, slot=0, node=0)
        with pytest.raises(ValueError):
            NodeLocation(col=0, row=0, cage=3, slot=0, node=0)
        with pytest.raises(ValueError):
            NodeLocation(col=0, row=0, cage=0, slot=8, node=0)
        with pytest.raises(ValueError):
            NodeLocation(col=0, row=0, cage=0, slot=0, node=4)

    def test_index_bijection(self):
        for index in (0, 1, 95, 96, 1234, TOTAL_NODES - 1):
            loc = NodeLocation.from_index(index)
            assert loc.index == index

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            NodeLocation.from_index(-1)
        with pytest.raises(ValueError):
            NodeLocation.from_index(TOTAL_NODES)

    def test_cabinet_and_blade_names(self):
        loc = NodeLocation.from_cname("c5-20c2s7n3")
        assert loc.cabinet == "c5-20"
        assert loc.blade == "c5-20c2s7"
        assert loc.cabinet_index == 20 * 8 + 5

    def test_gemini_shared_between_pairs(self):
        # (n0, n1) share a router, (n2, n3) share the other.
        base = "c0-0c0s0n{}"
        g = [NodeLocation.from_cname(base.format(i)).gemini_id for i in range(4)]
        assert g[0] == g[1]
        assert g[2] == g[3]
        assert g[0] != g[2]

    def test_router_peer_involution(self):
        loc = NodeLocation.from_cname("c1-2c1s3n2")
        peer = loc.router_peer()
        assert peer.node == 3
        assert peer.router_peer() == loc
        assert peer.gemini_id == loc.gemini_id


class TestTitanTopology:
    def test_full_machine_counts(self):
        topo = TitanTopology()
        assert topo.num_cabinets == 200
        assert topo.num_nodes == 19_200

    def test_shrunk_topology(self):
        topo = TitanTopology(rows=2, cols=3)
        assert topo.num_cabinets == 6
        assert topo.num_nodes == 576
        assert len(list(topo.nodes())) == 576

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            TitanTopology(rows=0)
        with pytest.raises(ValueError):
            TitanTopology(cols=9)

    def test_contains(self):
        topo = TitanTopology(rows=2, cols=2)
        assert NodeLocation.from_cname("c1-1c0s0n0") in topo
        assert NodeLocation.from_cname("c2-1c0s0n0") not in topo
        assert NodeLocation.from_cname("c1-2c0s0n0") not in topo

    def test_cabinets_enumeration(self):
        topo = TitanTopology(rows=2, cols=2)
        assert list(topo.cabinets()) == ["c0-0", "c1-0", "c0-1", "c1-1"]

    def test_parse_cabinet(self):
        assert TitanTopology.parse_cabinet("c7-24") == (7, 24)
        with pytest.raises(ValueError):
            TitanTopology.parse_cabinet("7-24")

    def test_nodeinfo_rows(self):
        topo = TitanTopology(rows=1, cols=2)
        rows = list(topo.nodeinfo_rows())
        assert len(rows) == 192
        first = rows[0]
        assert first["cname"] == "c0-0c0s0n0"
        assert first["gemini"].endswith("g0")
        assert "Opteron" in first["cpu"]
        assert "K20X" in first["gpu"]
