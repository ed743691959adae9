"""Runtime invariant sanitizer: corruption detection and activation."""

import pytest

from repro.analysis.sanitizer import InvariantSanitizer, SanitizerError
from repro.core.colors import WBColor
from repro.experiments.designs import build_network
from repro.sim.config import SimulationConfig
from repro.sim.engine import Simulator
from repro.topology.torus import Torus
from repro.traffic.generator import SyntheticTraffic
from repro.traffic.patterns import make_pattern


def _sanitized_sim(design="WBFC-1VC", rate=0.3, interval=1, warmup=300):
    cfg = SimulationConfig(sanitize=True, sanitize_interval=interval)
    net = build_network(design, Torus((4, 4)), cfg)
    wl = SyntheticTraffic(make_pattern("UR", net.topology), rate, seed=11)
    sim = Simulator(net, wl)
    sim.run(warmup)
    assert sim.sanitizer is not None and sim.sanitizer.checks_run == warmup
    return net, sim


class TestCorruptionDetection:
    """Seeded corruption must be reported within one cycle."""

    def test_second_gray_token_caught(self):
        net, sim = _sanitized_sim()
        fc = net.flow_control
        # Turn some white worm-bubble gray: the ring now owns two grays.
        for buffers in fc.ring_buffers.values():
            victim = next(
                (b for b in buffers if b.is_worm_bubble and b.color is WBColor.WHITE),
                None,
            )
            if victim is not None:
                break
        assert victim is not None
        victim.color = WBColor.GRAY
        with pytest.raises(SanitizerError, match="gray"):
            sim.run(1)

    def test_leaked_ci_caught(self):
        net, sim = _sanitized_sim()
        fc = net.flow_control
        key = next(iter(fc.ci))
        fc.ci[key] += 1  # a reservation that never marked a black token
        with pytest.raises(SanitizerError, match="token conservation"):
            sim.run(1)

    def test_credit_corruption_caught(self):
        net, sim = _sanitized_sim()
        ovc = next(
            ovc
            for router in net.routers
            for outs in router.outputs
            if outs is not None
            for ovc in outs
            if ovc.credits > 0
        )
        ovc.credits -= 1
        with pytest.raises(SanitizerError, match="credit conservation"):
            sim.run(1)

    def test_occupancy_counter_drift_caught(self):
        net, sim = _sanitized_sim(interval=1)
        net.buffered_flits += 1
        with pytest.raises(SanitizerError, match="occupancy counters drifted"):
            sim.run(1)

    def test_pending_nic_set_drift_caught(self):
        net, sim = _sanitized_sim(interval=1)
        # Drop a node that still has queued packets.  Silence the workload
        # for the verification cycle: a fresh offer to that node would
        # legitimately re-add it and heal the drift.
        sim.workload = None
        lost = next(node for node, nic in enumerate(net.nics) if nic.queue)
        net._pending_nic_nodes.discard(lost)
        with pytest.raises(SanitizerError, match="pending-NIC set drifted"):
            sim.run(1)

    def test_stage_set_drift_caught(self):
        net, sim = _sanitized_sim(interval=1)
        router = next(r for r in net.routers if r._active_vcs)
        router._active_vcs.pop()
        router._sorted_active = None
        with pytest.raises(SanitizerError, match="stage set drifted"):
            sim.run(1)

    def test_lane_occupancy_drift_caught(self):
        net, sim = _sanitized_sim(interval=1)
        fc = net.flow_control
        lane = next(iter(fc._lanes.values()))
        lane.occupied += 1
        with pytest.raises(SanitizerError, match="lane occupied count"):
            sim.run(1)

    def test_lane_bubble_mask_drift_caught(self):
        net, sim = _sanitized_sim(interval=1)
        fc = net.flow_control
        lane = next(iter(fc._lanes.values()))
        lane.bubble_mask ^= 1
        with pytest.raises(SanitizerError, match="lane bubble mask"):
            sim.run(1)


class TestHierarchicalRingRecount:
    """Deep recount must hold on the hierarchical-ring topology, whose
    per-node ring membership (one local ring, hubs also on the global
    ring) exercises the recount's ring bookkeeping differently from the
    torus."""

    def _bridged_hring_sim(self, interval=8, cycles=4_000):
        from repro.network.bridges import HierarchicalBridges
        from repro.routing.ring_routing import HierarchicalRingRouting
        from repro.sim.rng import make_rng
        from repro.topology.hierarchical_ring import HierarchicalRing

        topo = HierarchicalRing(4, 4)
        cfg = SimulationConfig(num_vcs=1, sanitize=True, sanitize_interval=interval)
        net = build_network("WBFC-1VC", topo, cfg)
        assert isinstance(net.routing, HierarchicalRingRouting)
        bridges = HierarchicalBridges(net)
        rng = make_rng(9)

        class BridgedTraffic:
            def step(self, cycle, network):
                for src in range(topo.num_nodes):
                    if rng.random() < 0.02:
                        dst = int(rng.integers(0, topo.num_nodes - 1))
                        if dst >= src:
                            dst += 1
                        bridges.send(src, dst, 5 if rng.random() < 0.5 else 1, cycle)

        sim = Simulator(net, BridgedTraffic())
        sim.run(cycles)
        return net, sim, bridges

    def test_deep_recount_passes_under_bridged_traffic(self):
        net, sim, bridges = self._bridged_hring_sim()
        assert sim.sanitizer is not None
        assert sim.sanitizer.deep_checks_run > 0
        assert len(bridges.delivered) > 100

    def test_occupancy_drift_caught_on_hring(self):
        net, sim, _ = self._bridged_hring_sim(interval=1, cycles=500)
        net.buffered_flits += 1
        with pytest.raises(SanitizerError, match="occupancy counters drifted"):
            sim.run(1)


class TestActivation:
    def test_off_by_default_registers_nothing(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        net = build_network("WBFC-1VC", Torus((4, 4)))
        sim = Simulator(net)
        assert sim.sanitizer is None
        assert sim.cycle_listeners == []

    def test_config_flag_enables(self):
        cfg = SimulationConfig(sanitize=True)
        net = build_network("WBFC-1VC", Torus((4, 4)), cfg)
        sim = Simulator(net)
        assert isinstance(sim.sanitizer, InvariantSanitizer)
        # Registered as the object itself (callable), so the engine can see
        # its event-horizon wake contract (next_wake/skip_span).
        assert sim.cycle_listeners == [sim.sanitizer]

    def test_env_enables(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        net = build_network("WBFC-1VC", Torus((4, 4)))
        sim = Simulator(net)
        assert sim.sanitizer is not None

    def test_env_zero_means_off(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        net = build_network("WBFC-1VC", Torus((4, 4)))
        assert Simulator(net).sanitizer is None

    def test_env_interval_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        monkeypatch.setenv("REPRO_SANITIZE_INTERVAL", "7")
        net = build_network("WBFC-1VC", Torus((4, 4)))
        assert Simulator(net).sanitizer.interval == 7

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            SimulationConfig(sanitize_interval=0)


class TestCleanRuns:
    @pytest.mark.parametrize("design", ["WBFC-1VC", "DL-2VC", "WBFC-3VC"])
    def test_healthy_simulations_pass_sanitized(self, design):
        net, sim = _sanitized_sim(design=design, interval=16, warmup=2_000)
        assert sim.sanitizer.deep_checks_run > 0
        assert net.packets_ejected > 0

    def test_sanitizer_does_not_change_results(self, monkeypatch):
        """The auditor only reads state: packet deliveries, counters, and
        RNG draws must be bit-identical with it on or off."""
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        results = []
        for sanitize in (False, True):
            cfg = SimulationConfig(sanitize=sanitize)
            net = build_network("WBFC-1VC", Torus((4, 4)), cfg)
            wl = SyntheticTraffic(make_pattern("UR", net.topology), 0.35, seed=3)
            Simulator(net, wl).run(2_000)
            results.append(
                (net.packets_ejected, net.flits_in_network, net.act_va_grants)
            )
        assert results[0] == results[1]
