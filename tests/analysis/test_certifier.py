"""Static deadlock-freedom certifier: verdicts, witnesses, SCC machinery."""

import pytest

from repro.analysis.cdg import EscapeChannel, build_cdg
from repro.analysis.certify import certify, certify_network
from repro.analysis.scc import find_cycle, strongly_connected_components
from repro.core.literal import PaperLiteralWBFC
from repro.experiments.designs import PAPER_DESIGNS, build_network
from repro.network.network import Network
from repro.network.switching import Switching
from repro.registry import ROUTINGS, parse_topology
from repro.sim.config import SimulationConfig
from repro.sim.deadlock import Watchdog
from repro.sim.engine import Simulator
from repro.topology.mesh import Mesh
from repro.topology.torus import Torus
from repro.traffic.generator import SyntheticTraffic
from repro.traffic.lengths import FixedLength
from repro.traffic.patterns import make_pattern


class TestTarjan:
    def test_acyclic_chain_is_all_singletons(self):
        graph = {1: [2], 2: [3], 3: []}
        sccs = strongly_connected_components(graph)
        assert sorted(map(tuple, sccs)) == [(1,), (2,), (3,)]
        # Reverse topological: a sink's SCC comes before its predecessors'.
        order = {scc[0]: i for i, scc in enumerate(sccs)}
        assert order[3] < order[2] < order[1]

    def test_cycle_collapses_to_one_scc(self):
        graph = {"a": ["b"], "b": ["c"], "c": ["a", "d"], "d": []}
        sccs = strongly_connected_components(graph)
        assert sorted(len(s) for s in sccs) == [1, 3]
        big = next(s for s in sccs if len(s) == 3)
        cycle = find_cycle(graph, big)
        assert sorted(cycle) == ["a", "b", "c"]

    def test_self_loop_is_a_cycle(self):
        graph = {1: [1, 2], 2: []}
        assert find_cycle(graph, [1]) == [1]

    def test_singleton_without_self_loop_has_no_cycle(self):
        with pytest.raises(ValueError):
            find_cycle({1: [2], 2: []}, [1])

    def test_iterative_survives_deep_graphs(self):
        """10k-node chain would blow the recursion limit on a recursive
        Tarjan; the work-stack implementation must not care."""
        n = 10_000
        graph = {i: [i + 1] for i in range(n)}
        graph[n] = []
        assert len(strongly_connected_components(graph)) == n + 1


class TestCdgStructure:
    def test_wbfc_channels_are_escape_vc0_and_all_rings_exempt(self):
        net = build_network("WBFC-1VC", Torus((4, 4)))
        cdg = build_cdg(net)
        assert cdg.channels and all(c.vc == 0 for c in cdg.channels)
        assert set(cdg.exempt_rings) == set(net.flow_control.rings)
        for reason in cdg.exempt_rings.values():
            assert "Theorem 1" in reason

    def test_wbfc_contraction_discharges_intra_ring_cycles(self):
        net = build_network("WBFC-1VC", Torus((4, 4)))
        cdg = build_cdg(net)
        adj = cdg.contract()
        # Every vertex is a contracted ring; no kept self-loops.
        assert all(v == ("ring", v[1]) for v in adj if isinstance(v, tuple))
        for u, succs in adj.items():
            assert u not in succs

    def test_dateline_uses_both_classes_and_no_exemptions(self):
        net = build_network("DL-2VC", Torus((4, 4)))
        cdg = build_cdg(net)
        assert not cdg.exempt_rings
        assert {c.vc for c in cdg.channels} == {0, 1}

    def test_edges_carry_traffic_witnesses(self):
        net = build_network("UNRESTRICTED-1VC", Torus((8,)))
        cdg = build_cdg(net)
        assert cdg.num_edges > 0
        for (u, v), (src, dst) in cdg.edge_witness.items():
            assert isinstance(u, EscapeChannel) and isinstance(v, EscapeChannel)
            assert src != dst

    def test_cdg_construction_is_deterministic(self):
        nets = [build_network("DL-2VC", Torus((4, 4))) for _ in range(2)]
        cdgs = [build_cdg(net) for net in nets]
        assert cdgs[0].channels == cdgs[1].channels
        assert [
            (u, tuple(vs)) for u, vs in cdgs[0].edges.items()
        ] == [(u, tuple(vs)) for u, vs in cdgs[1].edges.items()]


class TestVerdicts:
    @pytest.mark.parametrize("design", PAPER_DESIGNS)
    def test_all_paper_designs_certify_on_torus(self, design):
        cert = certify(design, Torus((4, 4)))
        assert cert.ok, cert.report()
        assert not cert.witness

    def test_unrestricted_rejected_on_torus_with_ring_witness(self):
        cert = certify("UNRESTRICTED-1VC", Torus((4, 4)))
        assert not cert.ok
        assert len(cert.witness) >= 2
        # The witness is a wait cycle around one unidirectional ring.
        rings = {label.split("ring=")[-1] for label in cert.witness}
        assert len(rings) == 1
        assert cert.witness_traffic
        assert "witness cycle" in cert.report()

    @pytest.mark.parametrize("topology", ["ring:8", "torus:4x4"])
    def test_paper_literal_wbfc_rejected_with_ring_witness(self, topology):
        """Section 3 read literally has no marked-WB passage rule, so
        Theorem 1 does not hold for the control that wedges: no ring is
        exempt and the witness is a wait cycle around one ring."""
        topo = parse_topology(topology)
        net = Network(
            topo,
            ROUTINGS.create(topo.default_routing, topo),
            PaperLiteralWBFC(),
            SimulationConfig(num_vcs=1),
        )
        cert = certify_network(net)
        assert not cert.ok, cert.report()
        assert not cert.exempt_rings
        assert len(cert.witness) >= 2 and cert.witness_traffic
        rings = {label.split("ring=")[-1] for label in cert.witness}
        assert len(rings) == 1

    def test_unrestricted_certifies_on_ring_free_mesh(self):
        cert = certify("UNRESTRICTED-1VC", Mesh((4, 4)))
        assert cert.ok, cert.report()

    def test_invalid_configuration_is_rejected_not_raised(self):
        cfg = SimulationConfig(num_vcs=1, num_escape_vcs=1)
        net_cfg = cfg  # base config; build_network overrides VCs per design
        cert = certify("WBFC-1VC", Torus((4, 4)), net_cfg)
        assert cert.ok  # control: the override makes it buildable
        from repro.experiments.designs import Design
        from repro.topology.ring import UnidirectionalRing

        # A design pinned to DOR cannot build on a ring topology: the
        # routing constructor refuses, and the certifier reports that as
        # a rejection rather than propagating the TypeError.
        pinned = Design("WBFC-DOR", 1, 1, "wbfc", False, routing="dor")
        cert = certify(pinned, UnidirectionalRing(8))
        assert not cert.ok
        assert "rejected by validation" in cert.reasons[0]

    def test_wbfc_certifies_on_standalone_ring(self):
        # Ring topologies pick ring routing by default, so the paper's
        # Section-6 claim — WBFC applies to any ring-bearing wormhole
        # topology — certifies directly.
        from repro.topology.ring import UnidirectionalRing

        cert = certify("WBFC-1VC", UnidirectionalRing(8))
        assert cert.ok, cert.report()

    def test_wbfc_ring_too_short_is_rejected(self):
        """A 2-node ring cannot hold ML+1 = 3 marked buffers, so the
        scheme's own validate() refuses and the certifier reports it."""
        cfg = SimulationConfig(buffer_depth=1, max_packet_length=2)
        cert = certify("WBFC-1VC", Torus((2, 2)), cfg)
        assert not cert.ok, cert.report()
        assert "rejected by validation" in cert.reasons[0]

    @pytest.mark.parametrize(
        "switching",
        [Switching.WORMHOLE_NONATOMIC, Switching.VCT],
        ids=lambda mode: mode.value,
    )
    def test_wbfc_outside_theorem_1_is_rejected(self, switching):
        """Theorem 1 assumes atomic buffer allocation, so WBFC under any
        other switching mode earns no certificate citing it."""
        cfg = SimulationConfig(buffer_depth=5, switching=switching)
        cert = certify("WBFC-1VC", Torus((4, 4)), cfg)
        assert not cert.ok, cert.report()
        assert "rejected by validation" in cert.reasons[0]
        assert "atomic" in cert.reasons[0]

    @pytest.mark.parametrize("depth, ok", [(4, False), (5, True)])
    def test_cbs_nonatomic_needs_whole_packet_buffers(self, depth, ok):
        """CBS admits an injection only into whole-packet room, so below
        the longest packet it would never inject one: no certificate."""
        cfg = SimulationConfig(
            buffer_depth=depth, switching=Switching.WORMHOLE_NONATOMIC
        )
        cert = certify("CBS-1VC", Torus((4, 4)), cfg)
        assert cert.ok is ok, cert.report()
        if not ok:
            assert "rejected by validation" in cert.reasons[0]
            assert "whole packets" in cert.reasons[0]


class TestGroundTruth:
    """The certifier's static verdicts must match what actually happens."""

    def _dynamic_deadlocks(self, design, topo, rate, cycles, lengths=None):
        net = build_network(design, topo)
        wl = SyntheticTraffic(
            make_pattern("UR", net.topology), rate, lengths=lengths, seed=5
        )
        watchdog = Watchdog(net, deadlock_window=500, raise_on_deadlock=False)
        Simulator(net, wl, watchdog=watchdog).run(cycles)
        return watchdog.deadlocked

    def test_wbfc_certified_and_survives(self):
        assert certify("WBFC-1VC", Torus((4, 4))).ok
        assert not self._dynamic_deadlocks("WBFC-1VC", Torus((4, 4)), 0.8, 5_000)

    def test_dateline_certified_and_survives(self):
        assert certify("DL-2VC", Torus((4, 4))).ok
        assert not self._dynamic_deadlocks("DL-2VC", Torus((4, 4)), 0.8, 5_000)

    def test_unrestricted_rejected_and_deadlocks(self):
        assert not certify("UNRESTRICTED-1VC", Torus((8,))).ok
        assert self._dynamic_deadlocks(
            "UNRESTRICTED-1VC", Torus((8,)), 0.5, 10_000, lengths=FixedLength(5)
        )


class TestNetworkLevelApi:
    def test_certify_network_matches_certify(self):
        net = build_network("WBFC-2VC", Torus((4, 4)))
        cert = certify_network(net)
        assert cert.ok and cert.scheme == "wbfc"
        assert cert.num_channels > 0 and cert.num_edges > 0
