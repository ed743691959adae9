"""Engine backend seam: soa/object bit-identity, fallback, plumbing.

The contract under test (see API.md "Engine backends"): for every
configuration in the array backend's supported matrix — single- and
multi-VC WBFC and Dateline designs on tori, meshes, and rings, open- and
closed-loop workloads — ``backend="soa"`` produces results byte-for-byte
identical to the object engine: the same ``MeasurementSummary``, the same
activity counters, the same flow-control statistics, and the same
snapshot state tree — so a run may hand over between backends mid-flight
in either direction.  The probe bus is part of that
contract: a :class:`TelemetrySession` of any feature set runs on ``soa``
and renders the same report, ordered trace included.  Outside the matrix
the factory raises :class:`BackendUnsupported` with a machine-checkable
witness and ``prepare()`` falls back to the object engine with a
:class:`BackendFallbackWarning`.
"""

import collections
import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.switching import Switching
from repro.registry import ENGINE_BACKENDS
from repro.sim.config import SimulationConfig
from repro.sim.deadlock import Watchdog
from repro.sim.engine import BackendFallbackWarning, BackendUnsupported
from repro.sim.kernels import displacement_pass, idle_advance
from repro.sim.spec import ScenarioSpec, execute, prepare
from repro.telemetry.probes import PROBE_EVENTS, ProbeBus, ProbeSink
from repro.telemetry.session import TelemetrySession

from .test_event_horizon import count_ticks


def test_soa_restates_no_flow_control_rule():
    """``soa`` reaches the rules only through the scheme's hooks: none of
    the verdict/displacement kernels or token types is even in scope
    there, so a rule cannot be quietly re-transcribed."""
    import repro.sim.soa as soa

    for name in (
        "wbfc_transit_allows",
        "wbfc_injection_verdict",
        "flit_injection_verdict",
        "displacement_pass",
        "idle_advance",
        "WBColor",
        "RingContext",
    ):
        assert not hasattr(soa, name), name


# -- snapshot normalization ----------------------------------------------------

_PRIM = (str, int, float, bool, bytes, type(None))


def normalize(x, seen=None):
    """Structural form of a snapshot state tree, comparable with ``==``.

    Flits/packets/contexts define no ``__eq__`` and the tree contains
    reference cycles, so objects become ``{"__type__": ..., fields...}``
    dicts and revisits become ``{"__ref__": ordinal}`` markers; identical
    trees normalize identically because traversal order is identical.
    """
    if seen is None:
        seen = {}
    if isinstance(x, _PRIM):
        return x
    if isinstance(x, tuple) and all(isinstance(v, _PRIM) for v in x):
        # An immutable value (a route's port tuple): whether two holders
        # share one object depends on which routing memo made it, i.e. on
        # hand-over history, and is not state.
        return list(x)
    oid = id(x)
    if oid in seen:
        return {"__ref__": seen[oid]}
    if isinstance(x, dict):
        seen[oid] = len(seen)
        return {repr(k): normalize(v, seen) for k, v in x.items()}
    if isinstance(x, (list, tuple, set, frozenset, collections.deque)):
        seen[oid] = len(seen)
        items = [normalize(v, seen) for v in x]
        if isinstance(x, (set, frozenset)):
            items = sorted(items, key=repr)
        return items
    d = getattr(x, "__dict__", None)
    if d is None and hasattr(type(x), "__slots__"):
        d = {s: getattr(x, s, None) for s in type(x).__slots__}
    if d is not None:
        seen[oid] = len(seen)
        return {
            "__type__": type(x).__name__,
            **{k: normalize(v, seen) for k, v in d.items()},
        }
    return repr(x)


def run_backend(backend, design, topology, rate, cycles, switching, seed=3, cut=None):
    """One measured run; returns every observable the contract covers.

    ``cut``: a cycle at which to take (and drop) a snapshot on the way —
    under ``soa`` a flush, which must settle what parking defers and
    leave the run undisturbed."""
    spec = ScenarioSpec(
        design=design,
        topology=topology,
        injection_rate=rate,
        config=SimulationConfig(switching=switching),
        seed=seed,
        backend=backend,
    )
    prepared = prepare(spec)
    if backend != "object":
        assert prepared.backend == backend, prepared.backend_unsupported
    sim = prepared.simulator
    if backend == "object":
        # The skip-vs-tick suite already pins skipping == ticking; compare
        # the SoA engine against the plain ticked reference.
        sim.skip_idle = False
    prepared.collector.begin(0)
    if cut is not None:
        sim.run(cut)
        sim.snapshot()
    sim.run(cycles - sim.cycle)
    prepared.collector.end(sim.cycle)
    net = prepared.network
    return {
        "summary": dataclasses.asdict(prepared.collector.summary()),
        "counters": (
            net.packets_ejected,
            net.flits_in_network,
            net.buffered_flits,
            net.backlog_packets,
            net.act_buffer_writes,
            net.act_buffer_reads,
            net.act_xbar_traversals,
            net.act_link_traversals,
            net.act_va_grants,
        ),
        "fc_stats": dict(getattr(net.flow_control, "stats", {})),
        "state": normalize(sim.snapshot().state),
    }


#: The widened supported matrix: single-VC worm- and flit-level WBFC,
#: multi-VC WBFC (Duato adaptive) and Dateline designs, on tori, meshes,
#: and rings.
MATRIX = [
    ("WBFC-1VC", "torus:4x4", 0.10, Switching.WORMHOLE_ATOMIC),
    ("WBFC-1VC", "ring:8", 0.40, Switching.WORMHOLE_ATOMIC),
    ("WBFC-FLIT-1VC", "torus:4x4", 0.35, Switching.WORMHOLE_NONATOMIC),
    ("WBFC-FLIT-1VC", "ring:8", 0.15, Switching.WORMHOLE_NONATOMIC),
    ("WBFC-2VC", "torus:4x4", 0.15, Switching.WORMHOLE_ATOMIC),
    ("WBFC-3VC", "torus:4x4", 0.25, Switching.WORMHOLE_ATOMIC),
    ("DL-2VC", "torus:4x4", 0.15, Switching.WORMHOLE_ATOMIC),
    ("DL-3VC", "torus:4x4", 0.25, Switching.WORMHOLE_ATOMIC),
    ("WBFC-1VC", "mesh:4x4", 0.15, Switching.WORMHOLE_ATOMIC),
    ("WBFC-2VC", "mesh:4x4", 0.25, Switching.WORMHOLE_ATOMIC),
    ("DL-2VC", "ring:8", 0.30, Switching.WORMHOLE_ATOMIC),
]


class TestParity:
    @pytest.mark.parametrize(
        "design,topology,rate,switching",
        MATRIX,
        ids=[f"{d}-{t}" for d, t, _, _ in MATRIX],
    )
    def test_bit_identity(self, design, topology, rate, switching):
        obj = run_backend("object", design, topology, rate, 1500, switching)
        got = run_backend("soa", design, topology, rate, 1500, switching)
        assert obj["summary"] == got["summary"]
        assert obj["counters"] == got["counters"]
        assert obj["fc_stats"] == got["fc_stats"]
        assert obj["state"] == got["state"]


#: Where parking is densest (the two busy 8x8 ledger workloads come first)
#: plus one of each remaining VA shape: three-VC adaptive near saturation,
#: Dateline (never parks in VA) and non-atomic flit-level.
LOCKSTEP = [
    ("WBFC-2VC", "mesh:8x8", 0.20, Switching.WORMHOLE_ATOMIC),
    ("WBFC-1VC", "torus:8x8", 0.30, Switching.WORMHOLE_ATOMIC),
    ("WBFC-3VC", "torus:4x4", 0.58, Switching.WORMHOLE_ATOMIC),
    ("DL-2VC", "torus:4x4", 0.35, Switching.WORMHOLE_ATOMIC),
    ("WBFC-FLIT-1VC", "torus:4x4", 0.35, Switching.WORMHOLE_NONATOMIC),
]
BUSY_MESH = LOCKSTEP[0]


def pipeline_pointers(network):
    """What a lazily paid arbiter or request age would get wrong."""
    return [
        (
            router._va_arbiter._ptr,
            [a._ptr for a in router._sa_input_arbiters],
            [a._ptr for a in router._sa_output_arbiters],
            [[ivc.va_first_request for ivc in port] for port in router.inputs],
        )
        for router in network.routers
    ]


class TestPointerLockstep:
    """Parked requesters owe their arbiters nothing: at every sampled
    ``_flush()`` each round-robin pointer and each ``va_first_request``
    equals the object engine's, so a slip fails at the cycle it happens."""

    @pytest.mark.parametrize(
        "design,topology,rate,switching",
        LOCKSTEP,
        ids=[f"{d}-{t}" for d, t, _, _ in LOCKSTEP],
    )
    def test_pointers_equal_at_every_flush(self, design, topology, rate, switching):
        obj = probed("object", design, topology, rate, switching)
        soa = probed("soa", design, topology, rate, switching)
        parked = 0
        for _ in range(30):
            obj.simulator.run(37)
            soa.simulator.run(37)
            parking = soa.simulator.parking
            parked += parking["va_parked"] + parking["sa_parked"]
            soa.simulator._flush()
            got = pipeline_pointers(soa.network)
            want = pipeline_pointers(obj.network)
            for node, (a, b) in enumerate(zip(want, got)):
                assert a == b, f"node {node} at cycle {soa.simulator.cycle}"
        assert parked, "nothing was ever parked at a flush: the test is vacuous"
        assert soa.network.activity == obj.network.activity


#: The probed parity configurations: the busy and the sparse 8x8 torus,
#: a Duato-adaptive mesh, a Dateline torus, a flit-level (non-atomic) torus.
PROBED = [
    ("WBFC-1VC", "torus:8x8", 0.30, 1200, Switching.WORMHOLE_ATOMIC),
    ("WBFC-2VC", "mesh:4x4", 0.25, 1500, Switching.WORMHOLE_ATOMIC),
    ("DL-2VC", "torus:4x4", 0.15, 1500, Switching.WORMHOLE_ATOMIC),
    ("WBFC-FLIT-1VC", "torus:4x4", 0.35, 1500, Switching.WORMHOLE_NONATOMIC),
    ("WBFC-1VC", "torus:8x8", 0.0005, 20_000, Switching.WORMHOLE_ATOMIC),
]
PROBED_IDS = [f"{d}-{t}@{r}" for d, t, r, _, _ in PROBED]
BUSY_TORUS, FLIT_TORUS = PROBED[0], PROBED[3]


def probed(backend, design, topology, rate, switching, telemetry=(), **spec):
    prepared = prepare(
        ScenarioSpec(
            design=design,
            topology=topology,
            injection_rate=rate,
            config=SimulationConfig(switching=switching),
            seed=spec.pop("seed", 3),
            telemetry=telemetry,
            backend=backend,
            **spec,
        )
    )
    assert prepared.backend == backend, prepared.backend_unsupported
    assert prepared.backend_unsupported is None
    return prepared


class Recorder(ProbeSink):
    """Every event, in dispatch order, as plain data: ``(event, cycle or
    None, labels / pids / the remaining scalars)``, reading only what a
    probe argument carries exactly under either engine."""

    def __init__(self):
        self.stream = []

    def packet_offered(self, node, packet, accepted, cycle):
        self.stream.append(("packet_offered", cycle, node, packet.pid, accepted))

    def packet_staged(self, node, packet, cycle):
        self.stream.append(("packet_staged", cycle, node, packet.pid))

    def packet_injected(self, node, packet, cycle):
        self.stream.append(("packet_injected", cycle, node, packet.pid))

    def packet_ejected(self, packet, cycle):
        self.stream.append(
            ("packet_ejected", cycle, packet.pid, packet.hops, packet.latency)
        )

    def flit_delivered(self, ivc, flit, cycle):
        self.stream.append(
            ("flit_delivered", cycle, ivc.label(), flit.packet.pid, flit.index,
             len(ivc.flits), ivc.owner.pid if ivc.owner else None)
        )

    def flit_sent(self, node, ivc, flit, cycle):
        self.stream.append(
            ("flit_sent", cycle, node, ivc.label(), flit.packet.pid, flit.index,
             ivc.out_port, ivc.out_vc, len(ivc.flits))
        )

    def va_grant(self, node, ivc, packet, out_port, out_vc, escape, wait, cycle):
        self.stream.append(
            ("va_grant", cycle, node, ivc.label(), packet.pid, out_port, out_vc,
             escape, wait, ivc.out_port, ivc.out_vc)
        )

    def credit_stall(self, node, ivc, cycle):
        self.stream.append(
            ("credit_stall", cycle, node, ivc.label(), ivc.out_port, ivc.out_vc)
        )

    def buffer_occupancy(self, ivc, delta):
        self.stream.append(
            ("buffer_occupancy", None, ivc.label(), delta, len(ivc.flits))
        )

    def wb_color(self, ivc, old, new, reason):
        self.stream.append(
            ("wb_color", None, ivc.label(), old.name, new.name, reason)
        )

    def ci_update(self, node, ring_id, delta, reason):
        self.stream.append(("ci_update", None, node, ring_id, delta, reason))

    def fc_event(self, name, key):
        self.stream.append(("fc_event", None, name, key))


class TestProbedParity:
    """The probe bus is backend-independent: same events, same arguments,
    same cycle, same order — so every sink renders the same report."""

    @pytest.mark.parametrize(
        "design,topology,rate,cycles,switching", PROBED, ids=PROBED_IDS
    )
    def test_full_report_bit_identity(
        self, design, topology, rate, cycles, switching
    ):
        reports = {}
        for backend in ("object", "soa"):
            prepared = probed(backend, design, topology, rate, switching, "full")
            prepared.simulator.run(cycles)
            reports[backend] = prepared.telemetry.report().to_dict()
        obj, soa = reports["object"], reports["soa"]
        assert obj["trace_events"] and obj["series"] and obj["counters"]["router"]
        assert soa.keys() == obj.keys()
        for section in obj:  # sectioned, so a mismatch names where
            assert soa[section] == obj[section], section

    @pytest.mark.parametrize(
        "design,topology,rate,cycles,switching",
        [BUSY_TORUS, FLIT_TORUS],
        ids=["busy-torus", "flit-torus"],
    )
    def test_recorded_event_stream_identical(
        self, design, topology, rate, cycles, switching
    ):
        streams = {}
        for backend in ("object", "soa"):
            prepared = probed(backend, design, topology, rate, switching)
            # Subscribed after the engine was chosen: a recorder is a
            # foreign sink, which prepare() would (rightly) refuse to
            # hand to soa; this one keeps to the probe-exact fields.
            recorder = Recorder()
            prepared.network.probes.add_sink(recorder)
            prepared.simulator.run(cycles)
            streams[backend] = recorder.stream
        obj, soa = streams["object"], streams["soa"]
        # Flit-level WBFC keeps its tokens in slots and emits no token event.
        tokens = {"wb_color", "ci_update", "fc_event"} if switching is (
            Switching.WORMHOLE_NONATOMIC
        ) else set()
        assert {event for event, *_ in obj} == set(PROBE_EVENTS) - tokens
        assert len(soa) == len(obj)
        for i, (a, b) in enumerate(zip(obj, soa)):
            assert a == b, f"event {i} of {len(obj)}"

    def test_session_attached_mid_run(self):
        """The half-attached bus: a session that joins a network already
        driven by ``soa`` sees every event from then on, not just the
        flow-control hooks' — and ``out_port``/``out_vc`` of worms granted
        before it joined."""
        design, topology, rate, _, switching = BUSY_TORUS
        reports = {}
        for backend in ("object", "soa"):
            prepared = probed(backend, design, topology, rate, switching)
            engine = prepared.simulator
            engine.run(400)
            session = TelemetrySession(prepared.network, "full").attach(engine)
            engine.run(600)
            reports[backend] = session.report().to_dict()
            session.detach()
            assert not prepared.network.probes.active
            assert session.sampler not in engine.cycle_listeners
        assert reports["object"]["counters"]["link"]
        assert reports["soa"] == reports["object"]

    def test_sparse_sampler_keeps_skipping(self):
        """Idle skipping survives the sampler: the engine inherits
        ``next_wake``/``skip_span`` through the adopted listener list, so
        it skips between samples and still lands on every one."""
        design, topology, rate, cycles, switching = PROBED[4]
        series, ticked = {}, {}
        for backend in ("object", "soa"):
            prepared = probed(
                backend, design, topology, rate, switching, ("timeseries",)
            )
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
        design, topology, rate, _, switching = BUSY_TORUS
        prepared = probed("soa", design, topology, rate, switching)
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
        cached = execute(spec, store=store)
        assert execution_stats() == {"simulated": 1, "cache_hits": 1}
        fresh = execute(spec)
        for summary in (written, cached):
            assert summary.telemetry.to_dict() == fresh.telemetry.to_dict()
            assert dataclasses.replace(
                summary, telemetry=None
            ) == dataclasses.replace(fresh, telemetry=None)


class TestLiveState:
    """Token state is shared-live under ``soa``: colors, CI, stats and the
    lanes are exact between ticks with no ``snapshot()``/``_flush()``."""

    @pytest.mark.parametrize(
        "rate,cycles", [(0.25, 1234), (0.0005, 20_000)], ids=["busy", "sparse"]
    )
    def test_tokens_readable_mid_run_without_flush(self, rate, cycles):
        from repro.telemetry.inspect import ring_color_census

        nets = {}
        for backend in ("object", "soa"):
            prepared = prepare(
                ScenarioSpec(
                    design="WBFC-1VC",
                    topology="torus:4x4",
                    injection_rate=rate,
                    seed=5,
                    backend=backend,
                )
            )
            assert prepared.backend == backend, prepared.backend_unsupported
            prepared.simulator.run(cycles)
            nets[backend] = prepared.network
        obj, soa = (nets[b].flow_control for b in ("object", "soa"))
        assert obj.ring_buffers.keys() == soa.ring_buffers.keys()
        for ring_id, ring in obj.ring_buffers.items():
            assert [b.color for b in ring] == [
                b.color for b in soa.ring_buffers[ring_id]
            ]
            assert ring_color_census(nets["object"], ring_id) == (
                ring_color_census(nets["soa"], ring_id)
            )
        assert dict(obj.ci) == dict(soa.ci)
        assert obj.stats == soa.stats  # the property settles every lane
        for ring_id, lane in obj._lanes.items():
            twin = soa._lanes[ring_id]
            assert lane.pending == twin.pending == 0
            assert (lane.key, lane.bubble_mask, lane.occupied) == (
                twin.key,
                twin.bubble_mask,
                twin.occupied,
            )


class TestHandoff:
    """Snapshot under one backend, resume under the other, match a
    never-paused object-engine reference at the same cycle."""

    def _prepared(self, backend, rate=0.25, skip_idle=None):
        spec = ScenarioSpec(
            design="WBFC-1VC",
            topology="torus:4x4",
            injection_rate=rate,
            seed=7,
            backend=backend,
        )
        prepared = prepare(spec)
        assert prepared.backend == backend, prepared.backend_unsupported
        if skip_idle is None:
            # The object leg is the plain ticked reference by default.
            skip_idle = backend != "object"
        prepared.simulator.skip_idle = skip_idle
        return prepared

    @pytest.fixture(scope="class")
    def reference_state(self):
        ref = self._prepared("object")
        ref.simulator.run(2000)
        return normalize(ref.simulator.snapshot().state)

    def test_object_to_soa(self, reference_state):
        a = self._prepared("object")
        a.simulator.run(1000)
        snap = a.simulator.snapshot()
        b = self._prepared("soa")
        b.simulator.restore(snap)
        b.simulator.run(1000)
        assert b.simulator.cycle == 2000
        assert normalize(b.simulator.snapshot().state) == reference_state

    def test_soa_to_object(self, reference_state):
        a = self._prepared("soa")
        a.simulator.run(1000)
        snap = a.simulator.snapshot()
        b = self._prepared("object")
        b.simulator.restore(snap)
        b.simulator.run(1000)
        assert normalize(b.simulator.snapshot().state) == reference_state

    def test_soa_continues_after_snapshot(self, reference_state):
        """The snapshot flush must leave the arrays live, not wedged."""
        a = self._prepared("soa")
        a.simulator.run(1000)
        a.simulator.snapshot()
        a.simulator.run(1000)
        assert normalize(a.simulator.snapshot().state) == reference_state

    @pytest.mark.parametrize("src,dst", [("object", "soa"), ("soa", "object")])
    def test_handoff_at_pending_wake_point(self, src, dst):
        """A monotone ``run_until`` hands control back on the wake cycle a
        skip landed on, the workload's pre-drawn Bernoulli row still
        stashed; the other backend must consume it like a run that never
        paused (and never skipped)."""
        rate, stop, end = 0.004, 450, 1500
        ref = self._prepared("object", rate)
        ref.simulator.run(end)

        a = self._prepared(src, rate, skip_idle=True)
        sim = a.simulator
        sim.run_until(lambda: sim.cycle >= stop, end)
        assert a.workload._stash is not None, (
            "scenario drift: the stop no longer lands on a pending wake "
            "point; pick a stop cycle inside an idle gap"
        )
        snap = sim.snapshot()
        b = self._prepared(dst, rate, skip_idle=True)
        b.simulator.restore(snap)
        assert b.workload._stash is not None
        b.simulator.run(end - b.simulator.cycle)
        assert normalize(b.simulator.snapshot().state) == normalize(
            ref.simulator.snapshot().state
        )

    @pytest.mark.parametrize("src,dst", [("object", "soa"), ("soa", "object")])
    def test_restore_drops_the_targets_owed_rotation(
        self, src, dst, reference_state
    ):
        """The restore target has idled ahead, so its lanes owe thousands
        of deferred rotations; they belong to the state being overwritten
        and must never replay onto the restored colors."""
        a = self._prepared(src, skip_idle=True)
        a.simulator.run(1000)
        snap = a.simulator.snapshot()
        b = self._prepared(dst, skip_idle=True)
        b.workload.stop()  # idle twin; restore rewinds the workload too
        b.simulator.run(5000)
        lanes = b.network.flow_control._lane_list
        assert lanes and all(lane.pending == 5000 for lane in lanes)
        b.simulator.restore(snap)
        assert not any(lane.pending for lane in lanes)
        b.simulator.run(1000)
        assert normalize(b.simulator.snapshot().state) == reference_state


class TestParkedHandoff:
    """Parking is derived state: a cut taken while VA heads, SA senders
    and NICs are parked snapshots, restores, hands over and meets a probe
    bus exactly like the object engine (busy mesh, where it is densest)."""

    CUT, LEG = 400, 200

    def _fresh(self, backend):
        design, topology, rate, switching = BUSY_MESH
        return probed(backend, design, topology, rate, switching)

    def _at_cut(self, backend):
        prepared = self._fresh(backend)
        prepared.simulator.run(self.CUT)
        return prepared

    def _parked_at_cut(self):
        prepared = self._at_cut("soa")
        parking = prepared.simulator.parking
        assert min(parking[f"{kind}_parked"] for kind in ("va", "sa", "nic")), (
            f"scenario drift: nothing parked at the cut: {parking}"
        )
        return prepared

    @pytest.fixture(scope="class")
    def reference_state(self):
        ref = self._fresh("object")
        ref.simulator.run(self.CUT + 2 * self.LEG)
        return normalize(ref.simulator.snapshot().state)

    def test_snapshot_while_parked(self, reference_state):
        """Restored into ``object`` and continued in place: both match."""
        a = self._parked_at_cut()
        snap = a.simulator.snapshot()
        assert a.simulator.parking["va_parked"], "a flush must not unpark"
        assert a.network._pending_nic_nodes == {
            nic.node for nic in a.network.nics if nic.queue
        }
        b = self._fresh("object")
        b.simulator.restore(snap)
        for prepared in (a, b):
            prepared.simulator.run(2 * self.LEG)
            assert normalize(prepared.simulator.snapshot().state) == reference_state

    def test_soa_to_object_to_soa(self, reference_state):
        a = self._parked_at_cut()
        b = self._fresh("object")
        b.simulator.restore(a.simulator.snapshot())
        b.simulator.run(self.LEG)
        c = self._fresh("soa")
        c.simulator.run(self.CUT // 2)  # restore must drop this twin's parking
        c.simulator.restore(b.simulator.snapshot())
        assert not any(
            c.simulator.parking[f"{kind}_parked"] for kind in ("va", "sa", "nic")
        )
        c.simulator.run(self.LEG)
        assert normalize(c.simulator.snapshot().state) == reference_state

    def test_session_attached_then_detached(self):
        """``credit_stall`` fires per stalled VC per cycle, so an active
        bus returns every parked sender to the scan and parks none."""
        results = {}
        for backend in ("object", "soa"):
            prepared = (
                self._parked_at_cut() if backend == "soa" else self._at_cut(backend)
            )
            engine = prepared.simulator
            session = TelemetrySession(prepared.network, "full").attach(engine)
            engine.run(self.LEG)
            report = session.report().to_dict()
            session.detach()
            if backend == "soa":
                assert engine.parking["sa_parked"] == 0
                sa_parks = engine.parking["sa_parks"]
            engine.run(self.LEG)
            results[backend] = (report, normalize(engine.snapshot().state))
        assert engine.parking["sa_parks"] > sa_parks, "parking never resumed"
        stalls = sum(
            events.get("credit_stalls", 0)
            for events in results["object"][0]["counters"]["router"].values()
        )
        assert stalls > 1000
        assert results["soa"] == results["object"]


    def test_watchdog_raise_leaves_exact_pointers(self):
        """The pre-raise flush happens mid-tick, after that cycle's VA
        phase: parked nodes owe their arbiter one advance more than at a
        cycle boundary."""
        from repro.sim.deadlock import StarvationError

        design, topology, rate, switching = BUSY_MESH
        wedged = {}
        for backend in ("object", "soa"):
            prepared = prepare(
                ScenarioSpec(
                    design=design, topology=topology, injection_rate=rate,
                    seed=3, backend=backend,
                ),
                watchdog=lambda net: Watchdog(
                    net, starvation_window=160, raise_on_starvation=True
                ),
            )
            assert prepared.backend == backend, prepared.backend_unsupported
            with pytest.raises(StarvationError) as raised:
                prepared.simulator.run(2000)
            if backend == "soa":
                assert prepared.simulator.parking["va_parked"]
            wedged[backend] = (
                str(raised.value),
                prepared.simulator.cycle,
                pipeline_pointers(prepared.network),
            )
        assert wedged["soa"] == wedged["object"]


class TestParkingCounts:
    """The run says how much it did not do: exact counts, updated only
    at park and wake time, pinned on the two ledger extremes."""

    @staticmethod
    def _run(backend, design, topology, rate, cycles):
        prepared = probed(
            backend, design, topology, rate, Switching.WORMHOLE_ATOMIC, seed=1
        )
        prepared.simulator.run(cycles)
        return prepared

    def test_busy_mesh_skips_most_va_evaluations(self):
        design, topology, rate, _ = BUSY_MESH
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
        soa = self._run("soa", "WBFC-1VC", "torus:8x8", 0.0005, 30_000)
        parking = soa.simulator.parking
        assert soa.network.packets_ejected > 100
        assert parking["va_skipped"] + parking["nic_skipped"] < 50
        assert parking["sa_skipped"] < 2_000
        assert not any(parking[f"{kind}_parked"] for kind in ("va", "sa", "nic"))


class TestFallback:
    """Unsupported configurations reject with a witness; prepare() falls
    back to the object engine, records the exception and warns."""

    def _spec(self, **overrides):
        base = dict(
            design="WBFC-1VC",
            topology="torus:4x4",
            injection_rate=0.1,
            backend="soa",
        )
        base.update(overrides)
        return ScenarioSpec(**base)

    def _falls_back(self, spec, **kwargs):
        with pytest.warns(BackendFallbackWarning, match="'soa'") as caught:
            prepared = prepare(spec, **kwargs)
        assert prepared.backend == "object"
        exc = prepared.backend_unsupported
        assert isinstance(exc, BackendUnsupported)
        assert repr(exc.witness) in str(caught[0].message)
        return exc.witness

    def test_supported_spec_is_honored(self, recwarn):
        prepared = prepare(self._spec())
        assert prepared.backend == "soa"
        assert prepared.backend_unsupported is None
        assert not recwarn.list

    @pytest.mark.parametrize("design", ["WBFC-2VC", "DL-2VC"])
    def test_widened_matrix_is_honored(self, design):
        # Multi-VC adaptive (WBFC-2VC) and Dateline designs used to fall
        # back; they are inside the widened matrix now.
        prepared = prepare(self._spec(design=design))
        assert prepared.backend == "soa"
        assert prepared.backend_unsupported is None

    def test_foreign_flow_control_falls_back(self):
        witness = self._falls_back(
            self._spec(
                design="CBS-1VC",
                config=SimulationConfig(switching=Switching.WORMHOLE_NONATOMIC),
            )
        )
        assert witness == ("flow_control", "cbs")

    @pytest.mark.parametrize(
        "features", [("counters",), ("timeseries",), "full"], ids=str
    )
    def test_telemetry_session_is_honored(self, features, recwarn):
        prepared = prepare(self._spec(telemetry=features))
        assert prepared.backend == "soa"
        assert prepared.backend_unsupported is None
        assert not recwarn.list
        # One session, one listener list: what prepare() attached to the
        # object simulator is what the engine ticks and skips by.
        assert prepared.simulator.telemetry is prepared.telemetry
        assert prepared.simulator.cycle_listeners is (
            prepared.simulator.inner.cycle_listeners
        )

    def test_foreign_probe_subscriber_rejects(self):
        prepared = prepare(self._spec(backend="object", telemetry="full"))
        prepared.network.probes.subscribe("flit_sent", lambda *args: None)
        with pytest.raises(BackendUnsupported) as exc_info:
            ENGINE_BACKENDS.create("soa", prepared.simulator)
        assert exc_info.value.witness == (
            "telemetry",
            "foreign_subscriber",
            "flit_sent",
        )

    def test_foreign_sink_falls_back(self):
        # A sink subscribed before the engine is chosen (here: by the
        # watchdog factory, which runs before backend resolution).
        class Sink(ProbeSink):
            def credit_stall(self, node, ivc, cycle):
                pass

        def factory(network):
            network.probes.add_sink(Sink())
            return Watchdog(network, deadlock_window=5_000)

        witness = self._falls_back(self._spec(), watchdog=factory)
        assert witness == ("telemetry", "foreign_subscriber", "credit_stall")

    def test_sanitizer_falls_back(self):
        witness = self._falls_back(
            self._spec(config=SimulationConfig(sanitize=True), telemetry="full")
        )
        assert witness == ("sanitizer", "on")

    def test_custom_watchdog_falls_back(self):
        class QuietWatchdog(Watchdog):
            pass

        witness = self._falls_back(
            self._spec(), watchdog=lambda net: QuietWatchdog(net)
        )
        assert witness == ("watchdog", "QuietWatchdog")

    def test_cycle_listener_rejects(self):
        # The session's own sampler is fine; one listener beside it is not.
        prepared = prepare(self._spec(backend="object", telemetry="timeseries"))
        sim = prepared.simulator
        ENGINE_BACKENDS.create("soa", sim)
        sim.cycle_listeners.append(lambda cycle: None)
        with pytest.raises(BackendUnsupported) as exc_info:
            ENGINE_BACKENDS.create("soa", sim)
        assert exc_info.value.witness == ("cycle_listeners", 1)

    def test_fallback_warns_once_per_call_site(self):
        import warnings

        spec = self._spec(config=SimulationConfig(sanitize=True))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            for _ in range(3):
                prepare(spec)
        assert [w.category for w in caught] == [BackendFallbackWarning]


class TestRegistryAndSpec:
    def test_registered_backends(self):
        assert ENGINE_BACKENDS.names() == ["object", "soa"]

    def test_removed_backend_fails_loudly(self, monkeypatch):
        # A name that used to exist must raise, never fall back silently.
        message = (
            r"unknown engine backend 'numpy'; "
            r"choose from \['object', 'soa'\]"
        )
        spec = ScenarioSpec(design="WBFC-1VC", topology="torus:4x4")
        with pytest.raises(ValueError, match=message):
            prepare(dataclasses.replace(spec, backend="numpy"))
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        with pytest.raises(ValueError, match=message):
            prepare(spec)

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
        # ...but the field itself round-trips through serialization.
        assert ScenarioSpec.from_dict(b.to_dict()) == b

    def test_env_override_wins_over_spec(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "soa")
        prepared = prepare(
            ScenarioSpec(design="WBFC-1VC", topology="torus:4x4")
        )
        assert prepared.backend == "soa"
        monkeypatch.setenv("REPRO_BACKEND", "object")
        prepared = prepare(
            ScenarioSpec(
                design="WBFC-1VC", topology="torus:4x4", backend="soa"
            )
        )
        assert prepared.backend == "object"

    def test_env_override_forwarded_to_workers(self):
        from repro.metrics.parallel import _FORWARDED_ENV

        assert "REPRO_BACKEND" in _FORWARDED_ENV


class TestClosedLoop:
    """Closed-loop (request-reply) parity: the workload's RNG draws, issue
    bookkeeping, and completion order must survive the backend swap."""

    CASES = [
        ("WBFC-1VC", "torus:4x4"),
        ("WBFC-2VC", "mesh:4x4"),
        ("DL-2VC", "torus:4x4"),
    ]

    @staticmethod
    def _run(backend, design, topology, cycles=2000):
        from repro.experiments.designs import build_network
        from repro.sim.engine import Simulator
        from repro.traffic.parsec import CoherenceWorkload

        net = build_network(design, topology, SimulationConfig())
        wl = CoherenceWorkload(net, "canneal", transactions_per_core=6, seed=3)
        sim = Simulator(net, wl, skip_idle=False)
        eng = sim if backend == "object" else ENGINE_BACKENDS.create(backend, sim)
        eng.run(cycles)
        return {
            "cycle": eng.cycle,
            "completed": list(wl.completed),
            "issued": list(wl.issued),
            "fc_stats": dict(getattr(net.flow_control, "stats", {})),
            "state": normalize(eng.snapshot().state),
        }

    @pytest.mark.parametrize(
        "design,topology", CASES, ids=[f"{d}-{t}" for d, t in CASES]
    )
    def test_closed_loop_bit_identity(self, design, topology):
        obj = self._run("object", design, topology)
        assert self._run("soa", design, topology) == obj


#: Verified (design, topology, switching) combinations the hypothesis
#: sweep draws from — sampled jointly because not every cross product is
#: buildable (e.g. Dateline needs ring wraparound that meshes lack).
_DIFFERENTIAL_COMBOS = [
    ("WBFC-1VC", "torus:4x4", Switching.WORMHOLE_ATOMIC),
    ("WBFC-1VC", "ring:8", Switching.WORMHOLE_ATOMIC),
    ("WBFC-1VC", "ring:4", Switching.WORMHOLE_ATOMIC),
    ("WBFC-1VC", "mesh:4x4", Switching.WORMHOLE_ATOMIC),
    ("WBFC-FLIT-1VC", "torus:4x4", Switching.WORMHOLE_NONATOMIC),
    ("WBFC-FLIT-1VC", "ring:8", Switching.WORMHOLE_NONATOMIC),
    ("WBFC-2VC", "torus:4x4", Switching.WORMHOLE_ATOMIC),
    ("WBFC-2VC", "mesh:4x4", Switching.WORMHOLE_ATOMIC),
    ("DL-2VC", "torus:4x4", Switching.WORMHOLE_ATOMIC),
    ("DL-2VC", "ring:8", Switching.WORMHOLE_ATOMIC),
    ("DL-3VC", "torus:4x4", Switching.WORMHOLE_ATOMIC),
    ("WBFC-3VC", "torus:4x4", Switching.WORMHOLE_ATOMIC),
]


class TestDifferential:
    """Hypothesis sweep of the widened matrix: any scenario the array
    backend accepts must agree with the object engine on every
    observable."""

    @settings(max_examples=8, deadline=None)
    @given(
        combo=st.sampled_from(_DIFFERENTIAL_COMBOS),
        rate=st.integers(min_value=2, max_value=35),
        seed=st.integers(min_value=0, max_value=2**16),
        cycles=st.integers(min_value=300, max_value=700),
        cut=st.integers(min_value=1, max_value=299),
    )
    def test_random_scenarios_agree(self, combo, rate, seed, cycles, cut):
        design, topology, switching = combo
        obj = run_backend(
            "object", design, topology, rate / 100, cycles, switching, seed
        )
        got = run_backend(
            "soa", design, topology, rate / 100, cycles, switching, seed, cut
        )
        assert obj == got


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
