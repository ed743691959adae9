"""BFC and CBS under VCT switching; the unrestricted negative control."""

import pytest

from repro.flowcontrol.bfc import LocalizedBubbleFlowControl
from repro.flowcontrol.cbs import CriticalBubbleScheme
from repro.network.network import Network
from repro.network.switching import Switching
from repro.routing.dor import DimensionOrderRouting
from repro.sim.config import SimulationConfig
from repro.sim.deadlock import Watchdog
from repro.sim.engine import Simulator
from repro.topology.torus import Torus
from repro.traffic.generator import SyntheticTraffic
from repro.traffic.lengths import FixedLength
from repro.traffic.patterns import UniformRandom, make_pattern


def vct_net(fc, depth):
    topo = Torus((4, 4))
    cfg = SimulationConfig(num_vcs=1, buffer_depth=depth, switching=Switching.VCT)
    return Network(topo, DimensionOrderRouting(topo), fc, cfg)


class TestCBS:
    def test_one_critical_bubble_per_ring(self):
        net = vct_net(CriticalBubbleScheme(), 5)
        fc = net.flow_control
        for rid, bufs in fc.ring_buffers.items():
            assert sum(1 for b in bufs if b.critical) == 1

    def test_requires_non_atomic(self):
        topo = Torus((4, 4))
        cfg = SimulationConfig(num_vcs=1, buffer_depth=5)
        with pytest.raises(ValueError, match="atomic"):
            Network(topo, DimensionOrderRouting(topo), CriticalBubbleScheme(), cfg)

    def test_vct_needs_packet_sized_buffers(self):
        with pytest.raises(ValueError, match="buffer_depth"):
            SimulationConfig(num_vcs=1, buffer_depth=3, switching=Switching.VCT)

    def test_critical_bubble_conserved_under_load(self):
        net = vct_net(CriticalBubbleScheme(), 5)
        fc = net.flow_control
        wl = SyntheticTraffic(UniformRandom(net.topology), 0.3, seed=5)
        sim = Simulator(net, wl, watchdog=Watchdog(net, deadlock_window=5_000))

        def check(cycle):
            for rid, bufs in fc.ring_buffers.items():
                assert sum(1 for b in bufs if b.critical) == 1, rid

        sim.cycle_listeners.append(check)
        sim.run(3_000)
        assert net.packets_ejected > 100

    @pytest.mark.parametrize("pattern", ["UR", "TO"])
    def test_no_deadlock_high_load(self, pattern):
        net = vct_net(CriticalBubbleScheme(), 5)
        wl = SyntheticTraffic(make_pattern(pattern, net.topology), 0.8, seed=4)
        sim = Simulator(net, wl, watchdog=Watchdog(net, deadlock_window=4_000))
        sim.run(10_000)
        assert net.packets_ejected > 0

    def test_all_arrive_after_drain(self):
        net = vct_net(CriticalBubbleScheme(), 5)
        wl = SyntheticTraffic(UniformRandom(net.topology), 0.2, seed=6)
        sim = Simulator(net, wl, watchdog=Watchdog(net, deadlock_window=10_000))
        sim.run(2_000)
        wl.packet_probability = 0.0
        assert sim.drain(50_000)
        assert net.packets_ejected == wl.packets_created

    def test_flit_sized_critical_bubble_case_c(self):
        """Section 6 case (c): non-atomic wormhole with a 1-flit bubble."""
        topo = Torus((4, 4))
        cfg = SimulationConfig(
            num_vcs=1, buffer_depth=8, switching=Switching.WORMHOLE_NONATOMIC
        )
        net = Network(
            topo, DimensionOrderRouting(topo), CriticalBubbleScheme(bubble_flits=1), cfg
        )
        wl = SyntheticTraffic(UniformRandom(net.topology), 0.4, seed=4)
        sim = Simulator(net, wl, watchdog=Watchdog(net, deadlock_window=4_000))
        sim.run(6_000)
        assert net.packets_ejected > 200


class TestLocalizedBFC:
    def test_requires_two_packet_buffers(self):
        with pytest.raises(ValueError, match="two"):
            vct_net(LocalizedBubbleFlowControl(), 5)

    def test_certified_and_bounded_at_two_packet_depth(self):
        """At depth 2·Lmax every ring is exempt under the BFC theorem and
        the bounds take the certificate's exemptions; one flit less and
        validation refuses."""
        from repro.analysis.bounds import compute_network_bounds
        from repro.analysis.certify import certify_network

        net = vct_net(LocalizedBubbleFlowControl(), 10)
        fc = net.flow_control
        cert = certify_network(net)
        assert cert.ok and set(cert.exempt_rings) == set(fc.rings)
        assert all("BFC theorem" in why for why in cert.exempt_rings.values())
        report = compute_network_bounds(net, "UR", ("fixed", 5))
        assert report.supported and report.exempt_rings == cert.exempt_rings
        with pytest.raises(ValueError, match="two max-size packets"):
            vct_net(LocalizedBubbleFlowControl(), 9)

    def test_runs_deadlock_free(self):
        net = vct_net(LocalizedBubbleFlowControl(), 10)
        wl = SyntheticTraffic(UniformRandom(net.topology), 0.5, seed=4)
        sim = Simulator(net, wl, watchdog=Watchdog(net, deadlock_window=4_000))
        sim.run(6_000)
        assert net.packets_ejected > 200

    def test_injection_needs_two_bubbles(self):
        net = vct_net(LocalizedBubbleFlowControl(), 10)
        fc = net.flow_control
        from repro.network.flit import Packet

        p = Packet(pid=0, src=0, dst=2, length=5)
        ovc = net.routers[0].outputs[1][0]
        assert fc.allow_escape(p, 0, 1, ovc, in_ring=False, cycle=0) is True
        # shrink the known-free space below L(p) + max packet
        ovc.credits = 9
        assert fc.allow_escape(p, 0, 1, ovc, in_ring=False, cycle=0) is False


class TestVCTInvariants:
    def test_vct_cbs_beats_localized_bfc_on_buffer_requirement(self):
        """CBS works with single-packet buffers where localized BFC cannot."""
        net = vct_net(CriticalBubbleScheme(), 5)  # one packet per buffer
        wl = SyntheticTraffic(
            UniformRandom(net.topology), 0.3, lengths=FixedLength(5), seed=9
        )
        sim = Simulator(net, wl, watchdog=Watchdog(net, deadlock_window=5_000))
        sim.run(4_000)
        assert net.packets_ejected > 100
