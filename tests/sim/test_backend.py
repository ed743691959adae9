"""Engine backend seam: what the differential state machine cannot draw.

The contract itself (see API.md "Engine backends") — ``soa`` bit-identical
to the object engine on every observable, through idle skipping,
snapshots, hand-overs in either direction and the probe bus — is stated
once, by ``tests/sim/test_engine_machine.py``.  This module keeps what a
machine drawing scenarios cannot express: exact parking counts on the two
ledger extremes, registry errors, the observers ``soa`` is built around
(sanitizer, custom watchdog, foreign subscribers and listeners), the
workloads a spec cannot name (bridged journeys, trace replay), the
idle-advance kernel, a spy on probe dispatch, a watchdog raise in the
middle of a tick, and that idle skipping survives a sampler.
"""

import collections
import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.wbfc import displacement_pass, idle_advance
from repro.experiments.designs import build_network
from repro.network.switching import Switching
from repro.registry import ENGINE_BACKENDS
from repro.sim.config import SimulationConfig
from repro.sim.deadlock import Watchdog
from repro.sim.engine import Simulator
from repro.sim.spec import ScenarioSpec, execute, prepare
from repro.telemetry.probes import PROBE_EVENTS, ProbeBus, ProbeSink

from .test_engine_machine import pipeline_pointers, pipeline_view
from .test_event_horizon import count_ticks


def test_soa_restates_no_flow_control_rule():
    """``soa`` reaches the rules only through the scheme's hooks: none of
    the displacement functions, passage rule or token types is even in
    scope there, so a rule cannot be quietly re-transcribed."""
    import repro.sim.soa as soa

    for name in (
        "_self_heals",
        "displacement_pass",
        "idle_advance",
        "WBColor",
        "RingContext",
    ):
        assert not hasattr(soa, name), name


#: The ledger's busy 8x8 mesh (where ``soa`` parks the most), its busy
#: 8x8 torus, and its sparse torus.
BUSY_MESH = ("WBFC-2VC", "mesh:8x8", 0.20)
BUSY_TORUS = ("WBFC-1VC", "torus:8x8", 0.30)
SPARSE_TORUS = ("WBFC-1VC", "torus:8x8", 0.0005)


def probed(backend, design, topology, rate, telemetry=(), seed=3):
    prepared = prepare(
        ScenarioSpec(
            design=design,
            topology=topology,
            injection_rate=rate,
            seed=seed,
            telemetry=telemetry,
            backend=backend,
        )
    )
    assert prepared.backend == backend
    return prepared


class TestProbedParity:
    """The probe bus under ``soa``, beyond the reports the machine
    compares: skipping between samples, no dispatch when nothing listens,
    and one store entry for both backends."""

    def test_sparse_sampler_keeps_skipping(self):
        """Idle skipping survives the sampler: the engine inherits
        ``next_wake``/``skip_span`` through the adopted listener list, so
        it skips between samples and still lands on every one."""
        cycles = 20_000
        series, ticked = {}, {}
        for backend in ("object", "soa"):
            prepared = probed(backend, *SPARSE_TORUS, ("timeseries",))
            engine = prepared.simulator
            ticked[backend] = count_ticks(engine)
            assert engine.run(cycles) == cycles
            series[backend] = prepared.telemetry.report().series
        interval = prepared.telemetry.sampler.interval
        assert [s["cycle"] for s in series["soa"]] == list(
            range(0, cycles, interval)
        )
        assert series["soa"] == series["object"]
        assert ticked["soa"] == ticked["object"]
        assert len(ticked["soa"]) < cycles // 2

    def test_unprobed_run_dispatches_nothing(self, monkeypatch):
        calls = collections.Counter()
        for event in PROBE_EVENTS:
            if event != "packet_ejected":  # the one unconditional event
                monkeypatch.setattr(
                    ProbeBus,
                    event,
                    lambda self, *args, _event=event: calls.update([_event]),
                )
        prepared = probed("soa", *BUSY_TORUS)
        prepared.simulator.run(300)
        assert prepared.network.packets_ejected > 0
        assert not calls

    def test_store_dedups_probed_summaries_across_backends(self, tmp_path):
        from repro.sim.checkpoint import ResultStore
        from repro.sim.spec import execution_stats, reset_execution_stats

        spec = ScenarioSpec(
            design="WBFC-1VC",
            topology="torus:4x4",
            injection_rate=0.25,
            seed=5,
            warmup=200,
            measure=800,
            telemetry="full",
        )
        store = ResultStore(tmp_path / "store")
        reset_execution_stats()
        written = execute(dataclasses.replace(spec, backend="soa"), store=store)
        obj = dataclasses.replace(spec, backend="object")
        cached = execute(obj, store=store)
        assert execution_stats() == {"simulated": 1, "cache_hits": 1}
        fresh = execute(obj)
        for summary in (written, cached):
            assert summary.telemetry.to_dict() == fresh.telemetry.to_dict()
            assert dataclasses.replace(
                summary, telemetry=None
            ) == dataclasses.replace(fresh, telemetry=None)


class TestParkedHandoff:
    """A cut the machine cannot take: the watchdog raises mid-tick."""

    def test_watchdog_raise_leaves_exact_pointers(self):
        """The pre-raise flush happens mid-tick, after that cycle's VA
        phase: parked nodes owe their arbiter one advance more than at a
        cycle boundary."""
        from repro.sim.deadlock import StarvationError

        design, topology, rate = BUSY_MESH
        wedged = {}
        for backend in ("object", "soa"):
            prepared = prepare(
                ScenarioSpec(
                    design=design, topology=topology, injection_rate=rate, seed=3
                )
            )
            network = prepared.network
            engine = Simulator(
                network,
                prepared.workload,
                watchdog=Watchdog(
                    network, starvation_window=160, raise_on_starvation=True
                ),
            )
            if backend == "soa":
                engine = ENGINE_BACKENDS.create("soa", engine)
            with pytest.raises(StarvationError) as raised:
                engine.run(2000)
            if backend == "soa":
                assert engine.parking["va_parked"]
            wedged[backend] = (
                str(raised.value),
                engine.cycle,
                pipeline_pointers(network),
            )
        assert wedged["soa"] == wedged["object"]


class TestParkingCounts:
    """The run says how much it did not do: exact counts, updated only
    at park and wake time, pinned on the two ledger extremes."""

    @staticmethod
    def _run(backend, design, topology, rate, cycles):
        prepared = probed(backend, design, topology, rate, seed=1)
        prepared.simulator.run(cycles)
        return prepared

    def test_busy_mesh_skips_most_va_evaluations(self):
        design, topology, rate = BUSY_MESH
        soa = self._run("soa", design, topology, rate, 3000)
        parking = soa.simulator.parking
        assert parking["va_skipped"] >= 450_000
        assert parking["sa_skipped"] >= 150_000
        assert parking["nic_skipped"] >= 100_000
        for kind in ("va", "sa", "nic"):
            assert 0 < parking[f"{kind}_parked"] <= parking[f"{kind}_parks"]
        # Reading settles the still-parked to now without moving them.
        assert soa.simulator.parking == parking
        obj = self._run("object", design, topology, rate, 3000)
        assert soa.network.activity == obj.network.activity

    def test_sparse_torus_parks_next_to_nothing(self):
        soa = self._run("soa", *SPARSE_TORUS, 30_000)
        parking = soa.simulator.parking
        assert soa.network.packets_ejected > 100
        assert parking["va_skipped"] + parking["nic_skipped"] < 50
        assert parking["sa_skipped"] < 2_000
        assert not any(parking[f"{kind}_parked"] for kind in ("va", "sa", "nic"))


class TestHonored:
    """An explicit ``backend="soa"`` is honoured, and so is everything that
    runs beside the simulation."""

    def _spec(self, **overrides):
        base = dict(
            design="WBFC-1VC",
            topology="torus:4x4",
            injection_rate=0.1,
            backend="soa",
        )
        base.update(overrides)
        return ScenarioSpec(**base)

    def _on_both(self, spec, attach, cycles=600):
        """Build ``spec`` on ``object``, let ``attach`` hook an observer
        into it (returning the read-out), then run it on each engine.
        ``soa`` is built *after* the hook: nothing beside the simulation
        is refused, and the runs must agree on everything."""
        seen = {}
        for backend in ("object", "soa"):
            prepared = prepare(dataclasses.replace(spec, backend="object"))
            observed = attach(prepared)
            engine = ENGINE_BACKENDS.create(backend, prepared.simulator)
            engine.run(cycles)
            getattr(engine, "_flush", lambda: None)()
            network = prepared.network
            assert network.packets_ejected > 0
            seen[backend] = (
                observed(),
                network.activity,
                dict(network.flow_control.stats),
                pipeline_pointers(network),
            )
        assert seen["soa"] == seen["object"]
        return seen["soa"][0]

    def test_supported_spec_is_honored(self, recwarn):
        prepared = prepare(self._spec())
        assert prepared.backend == "soa"
        assert not recwarn.list

    @pytest.mark.parametrize(
        "design", ["WBFC-2VC", "DL-2VC", "UNRESTRICTED-1VC"]
    )
    def test_widened_matrix_is_honored(self, design, recwarn):
        # Multi-VC adaptive (WBFC-2VC), Dateline and the unrestricted
        # negative control once fell back to the object engine.
        prepared = prepare(self._spec(design=design))
        assert prepared.backend == "soa"
        assert not recwarn.list

    @pytest.mark.parametrize(
        "design, switching",
        [
            ("CBS-1VC", Switching.WORMHOLE_NONATOMIC),
            ("CBS-1VC", Switching.VCT),
            ("DL-2VC", Switching.WORMHOLE_NONATOMIC),
            ("DL-2VC", Switching.VCT),
            ("UNRESTRICTED-1VC", Switching.VCT),
        ],
        ids=str,
    )
    def test_every_switching_mode_is_honored(self, design, switching, recwarn):
        # Schemes outside atomic wormhole once fell back as well.
        config = SimulationConfig(switching=switching, buffer_depth=10)
        prepared = prepare(self._spec(design=design, config=config))
        assert prepared.backend == "soa"
        assert not recwarn.list

    @pytest.mark.parametrize(
        "features", [("counters",), ("timeseries",), "full"], ids=str
    )
    def test_telemetry_session_is_honored(self, features, recwarn):
        prepared = prepare(self._spec(telemetry=features))
        assert prepared.backend == "soa"
        assert not recwarn.list
        # One session, one listener list: what prepare() attached to the
        # object simulator is what the engine ticks and skips by.
        assert prepared.simulator.telemetry is prepared.telemetry
        assert prepared.simulator.cycle_listeners is (
            prepared.simulator.inner.cycle_listeners
        )

    def test_foreign_probe_subscriber_is_honored(self):
        def attach(prepared):
            sent = []
            prepared.network.probes.subscribe(
                "flit_sent",
                lambda node, ivc, flit, cycle: sent.append(
                    (cycle, ivc.label(), flit.packet.pid, ivc.out_port, ivc.out_vc)
                ),
            )
            return lambda: (sent, prepared.telemetry.report().to_dict())

        sent, _ = self._on_both(self._spec(telemetry="full"), attach)
        assert sent

    def test_foreign_sink_is_honored(self):
        # A sink subscribed before the engine is chosen.
        class Sink(ProbeSink):
            def __init__(self):
                self.stalls = []

            def credit_stall(self, node, ivc, cycle):
                self.stalls.append((cycle, node, ivc.label(), ivc.out_port))

        def attach(prepared):
            sink = Sink()
            prepared.network.probes.add_sink(sink)
            return lambda: sink.stalls

        assert self._on_both(self._spec(injection_rate=0.4), attach)

    def test_sanitizer_is_honored(self):
        spec = self._spec(
            config=SimulationConfig(sanitize=True, sanitize_interval=16),
            telemetry="full",
        )
        prepared = prepare(spec)
        assert prepared.backend == "soa"
        engine = prepared.simulator
        # The engine audits through the sanitizer the object run built.
        assert engine.sanitizer is engine.inner.sanitizer
        engine.run(600)
        assert engine.sanitizer.deep_checks_run > 0
        plain = prepare(dataclasses.replace(spec, config=SimulationConfig()))
        plain.simulator.run(600)
        assert prepared.telemetry.report() == plain.telemetry.report()

    def test_custom_watchdog_is_honored(self):
        # A watchdog reading pipeline state every cycle sees it exact.
        class StageWatchdog(Watchdog):
            def observe(self, cycle):
                super().observe(cycle)
                self.seen.append(
                    [slot.state.name for nic in self.network.nics
                     for slot in nic.source_vcs]
                )

        def attach(prepared):
            watchdog = prepared.simulator.watchdog = StageWatchdog(prepared.network)
            watchdog.seen = []
            return lambda: watchdog.seen

        assert self._on_both(self._spec(), attach)

    def test_late_cycle_listener_is_honored(self):
        # A listener appended after ``soa`` is built, beside the session's
        # sampler, reads every buffer's pipeline state as ``object`` has it.
        spec = self._spec(injection_rate=0.2, seed=2, telemetry="timeseries")
        views = {}
        for backend in ("object", "soa"):
            prepared = prepare(dataclasses.replace(spec, backend=backend))
            engine = prepared.simulator
            engine.run(200)
            views[backend] = []
            engine.cycle_listeners.append(
                lambda cycle, log=views[backend], net=prepared.network: log.append(
                    (cycle, pipeline_view(net))
                )
            )
            engine.run(300)
        assert len(views["soa"]) == 300
        assert views["soa"] == views["object"]


@pytest.mark.parametrize("workload", ["bridged", "trace"])
def test_workload_no_spec_names(workload):
    """Bridged journeys on a hierarchical ring and a recorded trace replay
    are workloads a ``ScenarioSpec`` cannot name, so the machine never
    draws them: both engines must agree on every journey, and on the
    pipeline state and arbiter pointers every 250 cycles."""
    from repro.network.bridges import BridgedTraffic
    from repro.traffic.generator import SyntheticTraffic
    from repro.traffic.patterns import UniformRandom
    from repro.traffic.trace import TraceRecorder

    if workload == "trace":
        network = build_network("WBFC-2VC", "torus:4x4", SimulationConfig())
        recorder = TraceRecorder(
            SyntheticTraffic(UniformRandom(network.topology), 0.1, seed=7)
        )
        Simulator(network, recorder).run(1_000)
        trace = recorder.trace
    seen = {}
    for backend in ("object", "soa"):
        if workload == "bridged":
            network = build_network("WBFC-1VC", "hring:4x4", SimulationConfig())
            traffic = BridgedTraffic(network, 0.025, seed=3)
            journeys = traffic.bridges.journeys
        else:
            network = build_network("WBFC-2VC", "torus:4x4", SimulationConfig())
            traffic = trace
            trace.reset()
            journeys = []
            network.probes.subscribe(
                "packet_ejected",
                lambda p, cycle, log=journeys: log.append(
                    (cycle, p.pid, p.hops, p.latency, p.injection_delay)
                ),
            )
        engine = ENGINE_BACKENDS.create(backend, Simulator(network, traffic))
        views = []
        for _ in range(6):
            engine.run(250)
            getattr(engine, "_flush", lambda: None)()
            views.append((pipeline_view(network), pipeline_pointers(network)))
        seen[backend] = (list(journeys), views, network.activity)
    assert seen["soa"] == seen["object"]
    assert len(seen["soa"][0]) > 100


@pytest.mark.parametrize("switching", ["atomic", "nonatomic"])
def test_scheme_overriding_an_elided_hook_is_refused(switching):
    """``soa`` inlines WBFC's ``on_slot_filled`` under atomic switching and
    fires no ``on_bubble_change`` under non-atomic switching; a scheme that
    overrides the elided hook must be refused, not run differently."""
    from repro.core.flit_level import FlitLevelWBFC
    from repro.core.wbfc import WormBubbleFlowControl
    from repro.network.network import Network
    from repro.routing.ring_routing import RingRouting
    from repro.topology.ring import UnidirectionalRing

    if switching == "atomic":
        hook = "on_slot_filled"

        class Scheme(WormBubbleFlowControl):
            def on_slot_filled(self, ivc, flit):
                super().on_slot_filled(ivc, flit)

        config = SimulationConfig(num_vcs=1)
    else:
        hook = "on_bubble_change"

        class Scheme(FlitLevelWBFC):
            def on_bubble_change(self, ivc, occupied_delta):
                pass

        config = SimulationConfig(
            num_vcs=1, switching=Switching.WORMHOLE_NONATOMIC
        )
    ring = UnidirectionalRing(8)
    network = Network(ring, RingRouting(ring), Scheme(), config)
    simulator = Simulator(network, None)
    with pytest.raises(TypeError, match=f"{hook}.*Scheme overrides"):
        ENGINE_BACKENDS.create("soa", simulator)
    assert ENGINE_BACKENDS.create("object", simulator) is simulator


class TestRegistryAndSpec:
    #: A short 4x4 point.
    POINT = ScenarioSpec(
        design="WBFC-1VC", topology="torus:4x4", warmup=100, measure=300
    )

    @pytest.fixture
    def soa_built(self, monkeypatch):
        """Every ``SoAEngine`` this test constructs, in order."""
        from repro.sim.soa import SoAEngine

        built = []
        init = SoAEngine.__init__

        def spy(engine, simulator):
            init(engine, simulator)
            built.append(engine)

        monkeypatch.setattr(SoAEngine, "__init__", spy)
        monkeypatch.delenv("REPRO_RESULT_STORE", raising=False)
        return built

    def test_registered_backends(self):
        assert ENGINE_BACKENDS.names() == ["object", "soa"]

    def test_removed_backend_fails_loudly(self):
        # A name that used to exist must raise, never fall back silently.
        message = (
            r"unknown engine backend 'numpy'; "
            r"choose from \['object', 'soa'\]"
        )
        spec = dataclasses.replace(self.POINT, backend="numpy")
        with pytest.raises(ValueError, match=message):
            prepare(spec)
        with pytest.raises(ValueError, match=message):
            execute(spec)

    def test_unknown_backend_suggests_closest(self):
        with pytest.raises(ValueError, match=r"did you mean 'soa'\?"):
            ENGINE_BACKENDS.get("soaa")

    def test_unknown_backend_lists_names(self):
        with pytest.raises(ValueError, match="object"):
            ENGINE_BACKENDS.get("zzz-no-such-backend")

    def test_content_hash_excludes_backend(self):
        a = ScenarioSpec(design="WBFC-1VC", topology="torus:4x4")
        b = dataclasses.replace(a, backend="soa")
        assert a.content_hash() == b.content_hash()
        # ...but the field itself round-trips through serialization,
        # including the unset default.
        assert a.backend is None
        assert ScenarioSpec.from_dict(a.to_dict()) == a
        assert ScenarioSpec.from_dict(b.to_dict()) == b

    def test_default_prepares_object_and_executes_soa(self, soa_built):
        # prepare() hands out live objects, so it stays on the engine whose
        # object graph is exact every cycle; execute() hands out only a
        # summary, so it takes the fast engine.
        assert prepare(self.POINT).backend == "object"
        assert soa_built == []
        summary = execute(self.POINT)
        assert len(soa_built) == 1
        assert summary == execute(dataclasses.replace(self.POINT, backend="object"))
        assert len(soa_built) == 1

    @pytest.mark.parametrize("backend", ["object", "soa"])
    def test_explicit_backend_is_honored_by_both(self, backend, soa_built):
        spec = dataclasses.replace(self.POINT, backend=backend)
        assert prepare(spec).backend == backend
        del soa_built[:]
        execute(spec)
        assert len(soa_built) == (backend == "soa")

    def test_sanitized_execute_runs_on_soa(self, soa_built):
        # The auditor sees the engine that makes every figure.
        sanitized = dataclasses.replace(
            self.POINT, config=SimulationConfig(sanitize=True)
        )
        summary = execute(sanitized)
        assert len(soa_built) == 1
        assert summary == execute(dataclasses.replace(self.POINT, backend="object"))

    def test_default_sweep_equals_object_sweep(self, monkeypatch):
        from repro.metrics.parallel import run_specs

        monkeypatch.delenv("REPRO_RESULT_STORE", raising=False)
        specs = [
            dataclasses.replace(self.POINT, design=design, injection_rate=rate)
            for design in ("WBFC-1VC", "DL-2VC")
            for rate in (0.05, 0.3)
        ]
        pinned = [dataclasses.replace(s, backend="object") for s in specs]
        assert run_specs(specs, workers=2) == run_specs(pinned, workers=2)


class TestIdleAdvance:
    """``idle_advance`` is ``n`` full-mask displacement passes, folded."""

    @settings(max_examples=50, deadline=None)
    @given(data=st.data(), k=st.integers(min_value=3, max_value=8))
    def test_matches_single_steps(self, data, k):
        # One gray and 0..2 blacks at distinct positions, the rest white.
        gray, *blacks = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=k - 1),
                min_size=1,
                max_size=3,
                unique=True,
            )
        )
        start = 1 << (2 * gray)
        for pos in blacks:
            start |= 2 << (2 * pos)
        full = (1 << k) - 1

        def stepped(key, n):
            moves = 0
            for _ in range(n):
                key, disp, fwd = displacement_pass(k, key, full)
                assert fwd == 0  # an all-bubble ring has no blocked worm
                moves += disp
            return key, moves

        # Steps to the first repeated state == pre-period + one period.
        seen = [start]
        while (nxt := stepped(seen[-1], 1)[0]) not in seen:
            seen.append(nxt)
        lap = len(seen)
        cache = {}
        # From the walk's start and from a state in the middle of it (a
        # memo hit at a nonzero trajectory position).
        for key in (start, seen[-1]):
            for n in (0, 1, lap - 1, lap, lap + 1, 3 * lap + 2):
                assert idle_advance(k, key, n, cache) == stepped(key, n)
