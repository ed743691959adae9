"""Declarative scenario specs: round-tripping, hashing, execution."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from repro.network.switching import Switching
from repro.sim.config import SimulationConfig
from repro.sim.spec import ScenarioSpec, execute, prepare


def sample_spec(**overrides) -> ScenarioSpec:
    base = dict(
        design="WBFC-1VC",
        topology="torus:4x4",
        pattern="UR",
        injection_rate=0.08,
        config=SimulationConfig(num_vcs=1, buffer_depth=5),
        lengths=("bimodal",),
        seed=7,
        warmup=150,
        measure=300,
        fc_params=(("reclaim_patience", 3),),
    )
    base.update(overrides)
    return ScenarioSpec(**base)


class TestRoundTrip:
    def test_from_dict_inverts_to_dict(self):
        spec = sample_spec()
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_round_trip_survives_json(self):
        spec = sample_spec(
            config=SimulationConfig(
                num_vcs=1, buffer_depth=8, switching=Switching.WORMHOLE_NONATOMIC
            )
        )
        wire = json.dumps(spec.to_dict())
        assert ScenarioSpec.from_dict(json.loads(wire)) == spec

    def test_fc_params_normalize_to_sorted_pairs(self):
        a = ScenarioSpec("WBFC-1VC", "torus:4x4", fc_params={"b": 2, "a": 1})
        b = ScenarioSpec("WBFC-1VC", "torus:4x4", fc_params=(("a", 1), ("b", 2)))
        assert a == b
        assert a.content_hash() == b.content_hash()

    def test_specs_are_hashable_and_picklable(self):
        import pickle

        spec = sample_spec()
        assert hash(spec) == hash(sample_spec())
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            sample_spec(injection_rate=-0.1)


class TestContentHash:
    def test_hash_is_deterministic_in_process(self):
        assert sample_spec().content_hash() == sample_spec().content_hash()

    def test_hash_distinguishes_every_axis(self):
        base = sample_spec()
        variants = [
            sample_spec(design="DL-2VC"),
            sample_spec(topology="torus:8x8"),
            sample_spec(pattern="BC"),
            sample_spec(injection_rate=0.09),
            sample_spec(seed=8),
            sample_spec(measure=301),
            sample_spec(fc_params=(("reclaim_patience", 4),)),
            sample_spec(config=SimulationConfig(num_vcs=1, buffer_depth=6)),
        ]
        hashes = {base.content_hash()} | {v.content_hash() for v in variants}
        assert len(hashes) == len(variants) + 1

    def test_hash_is_stable_across_processes(self):
        """The store key must not depend on interpreter hash randomization."""
        from pathlib import Path

        repo_root = Path(__file__).resolve().parents[2]
        spec = sample_spec()
        program = (
            "import sys; sys.path.insert(0, 'src')\n"
            "from tests.sim.test_spec import sample_spec\n"
            "print(sample_spec().content_hash())"
        )
        out = subprocess.run(
            [sys.executable, "-c", program],
            capture_output=True,
            text=True,
            check=True,
            cwd=repo_root,
        )
        assert out.stdout.strip() == spec.content_hash()


class TestExecution:
    def test_prepare_builds_matching_structure(self):
        prepared = prepare(sample_spec())
        assert prepared.network.config.num_vcs == 1
        assert prepared.network.flow_control.name.lower().startswith("wbfc")
        assert prepared.topology.num_nodes == 16
        # fc_params reach the scheme constructor.
        assert prepared.network.flow_control.reclaim_patience == 3

    def test_execute_is_deterministic(self):
        spec = sample_spec()
        assert execute(spec, store=None) == execute(spec, store=None)

    def test_execute_matches_manual_protocol(self):
        spec = sample_spec()
        prepared = prepare(spec)
        sim, col = prepared.simulator, prepared.collector
        sim.run(spec.warmup)
        col.begin(sim.cycle)
        sim.run(spec.measure)
        col.end(sim.cycle)
        assert execute(spec, store=None) == col.summary()


CLOSED_LOOP = dict(
    design="DL-2VC", topology="torus:4x4", pattern="parsec:dedup:20", seed=11
)


class TestClosedLoop:
    """``pattern="parsec:<benchmark>:<transactions per core>"`` runs the
    coherence workload to completion in one window from cycle 0."""

    @pytest.mark.parametrize("backend", ["object", "soa"])
    def test_window_is_execution_time(self, backend):
        from repro.experiments.designs import build_network
        from repro.sim.engine import Simulator
        from repro.traffic.parsec import CoherenceWorkload

        network = build_network("DL-2VC", "torus:4x4")
        workload = CoherenceWorkload(network, "dedup", transactions_per_core=20, seed=11)
        cycles = workload.run_to_completion(Simulator(network, workload))
        spec = ScenarioSpec(**CLOSED_LOOP, backend=backend)
        assert prepare(spec).backend == backend
        summary = execute(spec, store=None)
        assert summary.window_cycles == cycles
        assert summary.activity == network.activity
        assert summary.packets > 0

    def test_spec_round_trips_with_a_pinned_hash(self):
        spec = ScenarioSpec(**CLOSED_LOOP)
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec
        assert spec.content_hash() == (
            "ded0d3c29c436b5ef874c57e92805e1d9d2981d7ddf8dff550356d9e384ef335"
        )
        # The closed loop added no field, so it shares the open-loop key
        # schema.  These pins move only when a spec or config field is
        # added or removed; every stored result then goes cold once.
        assert sample_spec().content_hash() == (
            "a6c4c9a80f74c592dfe747306002ee7da8853a3fea400da8240881eaadff2ddf"
        )
        workload = prepare(spec).workload
        assert (workload.profile.name, workload.transactions_per_core) == ("dedup", 20)
