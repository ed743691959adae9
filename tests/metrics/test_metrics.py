"""Measurement machinery: collectors, sweeps, saturation search."""

from functools import partial

import pytest

from repro.metrics.stats import MeasurementSummary, MetricsCollector
from repro.metrics.sweep import SweepPoint, SweepResult, run_point, sweep
from repro.topology.torus import Torus
from tests.conftest import make_torus_network, run_traffic


class TestCollector:
    def test_window_accounting(self):
        net = make_torus_network("DL-2VC")
        _, mc = run_traffic(net, 0.1, 3_000)
        s = mc.summary()
        assert s.packets > 100
        assert s.throughput == pytest.approx(0.1, abs=0.02)
        assert s.avg_latency > 10
        assert s.p99_latency >= s.avg_latency

    def test_unopened_window_raises(self):
        net = make_torus_network()
        mc = MetricsCollector(net)
        with pytest.raises(RuntimeError):
            mc.summary()

    def test_empty_window_is_inf_latency(self):
        net = make_torus_network()
        mc = MetricsCollector(net)
        mc.begin(0)
        mc.end(100)
        s = mc.summary()
        assert s.packets == 0
        assert s.avg_latency == float("inf")
        assert s.throughput == 0.0

    def test_warmup_packets_excluded_from_latency(self):
        net = make_torus_network("DL-2VC")
        from repro.sim.engine import Simulator
        from repro.traffic.generator import SyntheticTraffic
        from repro.traffic.patterns import UniformRandom

        wl = SyntheticTraffic(UniformRandom(net.topology), 0.1, seed=3)
        mc = MetricsCollector(net)
        sim = Simulator(net, wl)
        sim.run(1_000)
        mc.begin(sim.cycle)
        sim.run(2_000)
        mc.end(sim.cycle)
        s = mc.summary()
        # all measured packets were created inside the window
        assert s.packets <= wl.packets_created
        assert s.packets > 0

    def test_as_row_roundable(self):
        s = MeasurementSummary(10, 20.123, 44.0, 0.12345, 1.5, 2.0, 1000)
        row = s.as_row()
        assert row["avg_latency"] == 20.12
        assert row["throughput"] == pytest.approx(0.1235)


class TestSweep:
    def test_sweep_produces_monotone_throughput_below_saturation(self):
        curve = sweep(
            "DL-3VC",
            partial(Torus, (4, 4)),  # picklable: sweeps fan out to workers
            "UR",
            [0.05, 0.15, 0.25],
            warmup=400,
            measure=1_500,
        )
        thr = [p.summary.throughput for p in curve.points]
        assert thr[0] < thr[1] < thr[2]

    def test_saturation_interpolates(self):
        curve = SweepResult(design="x", pattern="UR")

        def pt(rate, lat):
            return SweepPoint(rate, MeasurementSummary(1, lat, lat, rate, 0, 0, 100))

        curve.points = [pt(0.05, 10.0), pt(0.2, 20.0), pt(0.3, 50.0)]
        # threshold 30: between 0.2 (20) and 0.3 (50) -> 0.2 + 1/3 * 0.1
        assert curve.saturation() == pytest.approx(0.2 + 0.1 / 3)

    def test_saturation_never_exceeded_returns_last(self):
        curve = SweepResult(design="x", pattern="UR")

        def pt(rate, lat):
            return SweepPoint(rate, MeasurementSummary(1, lat, lat, rate, 0, 0, 100))

        curve.points = [pt(0.05, 10.0), pt(0.2, 12.0)]
        assert curve.saturation() == 0.2

    def test_run_point_summary(self):
        s = run_point(
            "WBFC-2VC",
            lambda: Torus((4, 4)),
            "UR",
            0.1,
            warmup=300,
            measure=1_200,
        )
        assert s.packets > 50
        assert s.avg_hops > 1


class TestInjectionDelayMetric:
    def test_wbfc_1vc_has_higher_injection_delay_than_dl_2vc(self):
        """Figure 12's first-order claim at matched absolute load."""
        a = run_point(
            "WBFC-1VC", lambda: Torus((4, 4)), "UR", 0.08, warmup=400, measure=2_000
        )
        b = run_point(
            "DL-2VC", lambda: Torus((4, 4)), "UR", 0.08, warmup=400, measure=2_000
        )
        assert a.avg_injection_delay > b.avg_injection_delay
