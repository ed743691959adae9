"""Analytic bound engine: static saturation bounds."""

import dataclasses
import json
import os
import subprocess
import sys

import pytest

from repro.analysis.bounds import (
    BoundsUnsupported,
    compute_bounds,
    compute_network_bounds,
    validate_bounds,
)
from repro.analysis.certify import certify
from repro.experiments.designs import PAPER_DESIGNS, build_network
from repro.network.switching import Switching
from repro.sim.config import SimulationConfig
from repro.sim.spec import ScenarioSpec
from repro.topology.torus import Torus
from repro.traffic.patterns import make_pattern


def _spec(design, topology="torus:4x4", pattern="UR", **cfg):
    return ScenarioSpec(
        design=design,
        topology=topology,
        pattern=pattern,
        config=SimulationConfig(**cfg) if cfg else SimulationConfig(),
    )


class TestSupportedDesigns:
    @pytest.mark.parametrize("design", PAPER_DESIGNS)
    def test_paper_designs_bounded_on_torus(self, design):
        report = compute_bounds(_spec(design))
        assert report.supported, report.report()
        assert 0 < report.saturation_injection_rate < float("inf")
        assert 0 < report.saturation_throughput <= report.saturation_injection_rate

    def test_wbfc_contracts_all_torus_rings(self):
        report = compute_bounds(_spec("WBFC-1VC"))
        # 4x4 torus: 4 rings per dimension per direction used by DOR escape
        assert len(report.exempt_rings) == 16
        assert all("Theorem 1" in r for r in report.exempt_rings.values())

    def test_cbs_nonatomic_bounded(self):
        report = compute_bounds(
            _spec(
                "CBS-1VC",
                buffer_depth=8,
                switching=Switching.WORMHOLE_NONATOMIC,
            )
        )
        assert report.supported, report.report()
        assert report.exempt_rings

    def test_flit_level_wbfc_bounded(self):
        report = compute_bounds(
            _spec("WBFC-FLIT-1VC", switching=Switching.WORMHOLE_NONATOMIC)
        )
        assert report.supported, report.report()
        assert all("flit-level" in r for r in report.exempt_rings.values())

    def test_mesh_and_ring_bounded(self):
        for topo in ("mesh:4x4", "ring:8"):
            report = compute_bounds(_spec("WBFC-1VC", topology=topo))
            assert report.supported, report.report()

    def test_report_keeps_only_the_saturation_fields(self):
        data = compute_bounds(_spec("WBFC-1VC")).to_dict()
        assert set(data) == {
            "design", "topology", "pattern", "scheme", "supported",
            "assumptions", "exempt_rings", "saturation_injection_rate",
            "saturation_throughput", "generation_rate", "bottleneck",
        }

    def test_packet_lengths_do_not_move_the_bound(self):
        """The bound reads the network's config, not the length mix: a
        spec differing only in ``lengths`` gets the same report."""
        fixed = dataclasses.replace(_spec("WBFC-1VC"), lengths=("fixed", 1))
        assert compute_bounds(fixed).to_dict() == compute_bounds(
            _spec("WBFC-1VC")
        ).to_dict()

    def test_deterministic_recomputation(self):
        a = compute_bounds(_spec("WBFC-2VC"))
        b = compute_bounds(_spec("WBFC-2VC"))
        assert a == b


class TestSaturationAnalysis:
    def test_tornado_saturates_below_uniform(self):
        """TO concentrates load on half-ring paths; UR spreads it."""
        ur = compute_bounds(_spec("WBFC-1VC", pattern="UR"))
        tp = compute_bounds(_spec("WBFC-1VC", pattern="TP"))
        assert tp.saturation_injection_rate < ur.saturation_injection_rate

    def test_hotspot_is_ejection_limited(self):
        hs = compute_bounds(_spec("WBFC-1VC", pattern="HS"))
        assert hs.supported
        assert hs.bottleneck.startswith("ejection")
        assert hs.saturation_injection_rate < 0.5

    def test_generation_rate_reflects_idle_sources(self):
        """TP's diagonal nodes never send: generation rate < 1."""
        tp = compute_bounds(_spec("WBFC-1VC", pattern="TP"))
        ur = compute_bounds(_spec("WBFC-1VC", pattern="UR"))
        assert ur.generation_rate == pytest.approx(1.0)
        assert tp.generation_rate == pytest.approx(12 / 16)

    def test_throughput_bound_scales_with_generation(self):
        report = compute_bounds(_spec("WBFC-1VC", pattern="TP"))
        assert report.saturation_throughput == pytest.approx(
            report.saturation_injection_rate * report.generation_rate
        )


class TestUnsupportedWitnesses:
    def test_unrestricted_on_torus_has_cycle_witness(self):
        report = compute_bounds(_spec("UNRESTRICTED-1VC"))
        assert not report.supported
        assert isinstance(report.unsupported, BoundsUnsupported)
        assert "cycle" in report.unsupported.reason
        assert len(report.unsupported.witness) >= 2

    def test_rejection_carries_the_certificate(self):
        """A certifier rejection reaches the report unchanged: its reasons
        in the text, its dependence cycle as the witness."""
        report = compute_bounds(_spec("UNRESTRICTED-1VC"))
        cert = certify("UNRESTRICTED-1VC", "torus:4x4")
        assert not cert.ok
        assert report.unsupported.witness == cert.witness
        assert all(r in report.unsupported.reason for r in cert.reasons)

    def test_wbfc_on_unbridged_hierarchy_unsupported(self):
        """Per-ring WBFC cannot bound the local->global->local hierarchy."""
        report = compute_bounds(_spec("WBFC-1VC", topology="hring:4x4"))
        assert not report.supported
        assert report.unsupported.witness

    def test_dateline_on_hierarchy_unsupported(self):
        report = compute_bounds(_spec("DL-2VC", topology="hring:4x4"))
        assert not report.supported
        assert "dateline placement" in report.unsupported.reason

    def test_bad_configuration_is_witnessed_not_raised(self):
        report = compute_bounds(_spec("CBS-1VC"))  # atomic wormhole: rejected
        assert not report.supported
        assert "rejected by validation" in report.unsupported.reason

    def test_unknown_pattern_is_witnessed(self):
        report = compute_bounds(_spec("WBFC-1VC", pattern="NOPE"))
        assert not report.supported

    def test_patternless_matrix_is_witnessed(self, monkeypatch):
        """A pattern without a static matrix yields a witness, not a bound."""
        from repro.traffic.patterns import UniformRandom

        net = build_network("WBFC-1VC", Torus((4, 4)))
        monkeypatch.setattr(UniformRandom, "static_flows", lambda self: None)
        report = compute_network_bounds(net, "UR")
        assert not report.supported
        assert "static_flows" in report.unsupported.reason

    def test_validate_raises_on_unsupported(self):
        with pytest.raises(ValueError, match="no analytic bounds"):
            validate_bounds(_spec("UNRESTRICTED-1VC"))

    @pytest.mark.parametrize(
        "design", [*PAPER_DESIGNS, "UNRESTRICTED-1VC", "CBS-1VC", "WBFC-FLIT-1VC"]
    )
    @pytest.mark.parametrize("topology", ["torus:4x4", "mesh:4x4", "ring:8", "hring:4x4"])
    def test_every_registered_combination_is_covered(self, design, topology):
        """Bound or explicit witness — never an exception, never silence —
        and the certifier alone decides which: bounded iff certified."""
        report = compute_bounds(_spec(design, topology=topology))
        if not report.supported:
            assert report.unsupported is not None and report.unsupported.reason
        try:
            build_network(design, topology, SimulationConfig())
        except (ValueError, TypeError, NotImplementedError):
            assert not report.supported  # nothing builds, nothing to certify
            return
        try:
            cert = certify(design, topology)
        except NotImplementedError:
            # No escape CDG exists (Dateline has no placement on hring).
            assert "escape CDG construction failed" in report.unsupported.reason
            return
        assert report.supported == cert.ok, (report.report(), cert.report())
        if cert.ok:
            assert report.exempt_rings == cert.exempt_rings


class TestNoSimulatorConstruction:
    def test_engine_module_never_imported(self):
        """compute_bounds must not even import the simulation engine."""
        code = (
            "import sys\n"
            "from repro.analysis.bounds import compute_bounds\n"
            "from repro.sim.spec import ScenarioSpec\n"
            "r = compute_bounds(ScenarioSpec(design='WBFC-1VC', topology='torus:4x4'))\n"
            "assert r.supported\n"
            "assert 'repro.sim.engine' not in sys.modules, 'engine was imported'\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr

    def test_simulator_never_instantiated(self, monkeypatch):
        from repro.sim.engine import Simulator

        def boom(self, *a, **k):
            raise AssertionError("compute_bounds constructed a Simulator")

        monkeypatch.setattr(Simulator, "__init__", boom)
        report = compute_bounds(_spec("WBFC-1VC"))
        assert report.supported


class TestCli:
    def _run(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "repro.analysis", *args],
            capture_output=True,
            text=True,
        )

    def test_bounds_text_mode(self):
        proc = self._run("bounds", "WBFC-1VC", "--topology", "torus:4x4")
        assert proc.returncode == 0, proc.stderr
        assert "BOUNDS: WBFC-1VC" in proc.stdout
        assert "saturation injection rate" in proc.stdout

    def test_bounds_json_mode(self):
        proc = self._run("bounds", "WBFC-1VC", "--json")
        assert proc.returncode == 0, proc.stderr
        data = json.loads(proc.stdout)
        assert data["supported"] is True
        assert 0 < data["saturation_injection_rate"]

    def test_bounds_expect_unsupported(self):
        proc = self._run(
            "bounds", "UNRESTRICTED-1VC", "--expect-unsupported", "--json"
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["supported"] is False

    def test_bounds_hierarchy_expect_unsupported(self):
        """The certifier's hierarchy rejection stays a bounds rejection."""
        proc = self._run(
            "bounds", "WBFC-1VC", "--topology", "hring:4x4",
            "--expect-unsupported", "--json",
        )
        assert proc.returncode == 0, proc.stderr
        data = json.loads(proc.stdout)
        assert data["supported"] is False and data["unsupported"]["witness"]

    def test_bounds_unsupported_exits_nonzero(self):
        proc = self._run("bounds", "UNRESTRICTED-1VC")
        assert proc.returncode == 1
        assert "BOUNDS UNSUPPORTED" in proc.stdout

    def test_certify_json_mode(self):
        proc = self._run("certify", "WBFC-1VC", "--json")
        assert proc.returncode == 0, proc.stderr
        data = json.loads(proc.stdout)
        assert data["ok"] is True and data["scheme"] == "wbfc"

    def test_certify_json_rejection(self):
        proc = self._run("certify", "UNRESTRICTED-1VC", "--json", "--expect-reject")
        assert proc.returncode == 0, proc.stderr
        data = json.loads(proc.stdout)
        assert data["ok"] is False and data["witness"]

    def test_cbs_via_switching_flag(self):
        proc = self._run(
            "bounds", "CBS-1VC", "--switching", "nonatomic", "--buffer-depth", "8",
            "--json",
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["supported"] is True


class TestStaticFlows:
    """The traffic matrices driving the saturation analysis."""

    @pytest.mark.parametrize("name", ["UR", "TP", "BC", "TO", "BR", "HS", "NN"])
    def test_weights_form_substochastic_matrix(self, name):
        pattern = make_pattern(name, Torus((4, 4)))
        flows = pattern.static_flows()
        assert flows is not None
        per_src = {}
        for src, dst, w in flows:
            assert 0 < w <= 1.0
            assert src != dst
            per_src[src] = per_src.get(src, 0.0) + w
        for total in per_src.values():
            assert total <= 1.0 + 1e-9

    @pytest.mark.parametrize("name", ["TP", "BC", "TO", "BR"])
    def test_permutation_patterns_match_dest(self, name):
        pattern = make_pattern(name, Torus((4, 4)))
        flows = dict(
            ((s, d), w) for s, d, w in pattern.static_flows()
        )
        for src in range(16):
            dst = pattern.dest(src, None)
            if dst is None:
                assert not any(s == src for s, _ in flows)
            else:
                assert flows[(src, dst)] == 1.0

    def test_uniform_matches_sampling_law(self):
        from repro.sim.rng import make_rng

        pattern = make_pattern("UR", Torus((2, 2)))
        flows = {(s, d): w for s, d, w in pattern.static_flows()}
        rng = make_rng(7)
        counts = {}
        n = 12_000
        for _ in range(n):
            d = pattern.dest(0, rng)
            counts[d] = counts.get(d, 0) + 1
        for d, c in counts.items():
            assert flows[(0, d)] == pytest.approx(c / n, abs=0.03)


class TestGoldenSummaries:
    """The cached golden file behind CI's bounds-smoke job must stay
    reproducible from a pure bound recomputation (no simulation)."""

    GOLDEN = os.path.join(
        os.path.dirname(__file__), "..", "..", "benchmarks", "golden",
        "bounds_golden.json",
    )

    def _entries(self):
        with open(self.GOLDEN, encoding="utf-8") as fh:
            return json.load(fh)["entries"]

    def test_covers_six_designs(self):
        names = [e["design"] for e in self._entries()]
        assert len(names) == 6
        assert set(PAPER_DESIGNS) < set(names)
        assert "CBS-1VC" in names

    def test_cached_measurements_respect_recomputed_bounds(self):
        for entry in self._entries():
            args = dict(zip(entry["cli_args"][::2], entry["cli_args"][1::2]))
            cfg = SimulationConfig(
                buffer_depth=int(args.get("--buffer-depth", 3)),
                switching=Switching(
                    {"atomic": "wormhole_atomic",
                     "nonatomic": "wormhole_nonatomic",
                     "vct": "vct"}[args.get("--switching", "atomic")]
                ),
            )
            report = compute_bounds(
                ScenarioSpec(
                    design=entry["design"],
                    topology=args["--topology"],
                    pattern=args["--pattern"],
                    injection_rate=entry["injection_rate"],
                    config=cfg,
                )
            )
            assert report.supported, (entry["design"], report.unsupported)
            meas = entry["measured"]
            assert entry["injection_rate"] < report.saturation_injection_rate
            assert meas["throughput"] <= report.saturation_throughput
            cached = entry["bounds_at_generation"]
            assert (cached["saturation_throughput"]
                    == report.saturation_throughput)
