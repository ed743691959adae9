"""BoundsReport validation harness: measurements must respect the bounds."""

import dataclasses

import pytest

from repro.analysis.bounds import compute_bounds, validate_bounds
from repro.experiments.designs import PAPER_DESIGNS
from repro.sim.config import SimulationConfig
from repro.sim.spec import ScenarioSpec


def _spec(design, rate=0.1, pattern="UR", topology="torus:4x4", **kw):
    return ScenarioSpec(
        design=design,
        topology=topology,
        pattern=pattern,
        injection_rate=rate,
        config=SimulationConfig(),
        warmup=300,
        measure=1_500,
        seed=5,
        **kw,
    )


class TestFreshSimulations:
    """Below the saturation bound, simulated accepted throughput stays
    under the analytic bound — for every paper design, asserted against
    fresh simulations."""

    @pytest.mark.parametrize("design", PAPER_DESIGNS)
    def test_paper_designs_consistent_below_saturation(self, design):
        spec = _spec(design)
        validation = validate_bounds(spec)
        assert validation.below_saturation
        assert validation.ok, validation.render()
        assert validation.summary.packets > 0
        assert (
            validation.summary.throughput
            <= validation.report.saturation_throughput
        )

    def test_tornado_pattern_consistent(self):
        validation = validate_bounds(_spec("WBFC-1VC", rate=0.15, pattern="TO"))
        assert validation.ok, validation.render()

    def test_at_saturation_throughput_check_is_waived(self):
        """At/above the analytic saturation rate the throughput bound is
        not applicable; only the capacity ceiling is asserted."""
        spec = _spec("WBFC-1VC", rate=0.6, pattern="TP")  # TP bound: 0.5
        report = compute_bounds(spec)
        assert spec.injection_rate >= report.saturation_injection_rate
        validation = validate_bounds(spec)
        assert not validation.below_saturation
        assert validation.ok, validation.render()
        assert any("not applicable" in line for line in validation.checks)


class TestHarnessMechanics:
    def test_throughput_violation_detected(self):
        spec = _spec("WBFC-1VC")
        real = validate_bounds(spec)
        doctored = dataclasses.replace(
            real.summary,
            throughput=real.report.saturation_throughput + 0.5,
        )
        validation = validate_bounds(spec, summary=doctored)
        assert not validation.ok

    def test_ejection_capacity_violation_detected_above_saturation(self):
        """The per-node ejection ceiling holds at every operating point,
        also where the saturation bound is waived."""
        spec = _spec("WBFC-1VC", rate=0.6, pattern="TP")  # TP bound: 0.5
        real = validate_bounds(spec)
        assert not real.below_saturation
        bw = float(spec.config.link_bandwidth_flits)
        doctored = dataclasses.replace(real.summary, throughput=bw + 0.25)
        validation = validate_bounds(spec, summary=doctored)
        assert not validation.ok
        assert any("ejection capacity" in v for v in validation.violations)

    def test_replays_result_store_entry(self, tmp_path):
        """A stored measurement is validated without re-simulating."""
        from repro.sim.checkpoint import ResultStore
        from repro.sim.spec import execute

        store = ResultStore(tmp_path / "store")
        spec = _spec("WBFC-1VC")
        first = execute(spec, store=store)
        validation = validate_bounds(spec, store=store)
        assert store.hits >= 1
        assert validation.ok, validation.render()
        assert validation.summary.p99_latency == first.p99_latency

    def test_render_mentions_every_check(self):
        validation = validate_bounds(_spec("WBFC-1VC"))
        text = validation.render()
        assert "CONSISTENT" in text
        assert "saturation bound" in text and "ejection capacity" in text
