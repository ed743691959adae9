"""Event-horizon scheduling: skipping must be invisible and actually skip.

The engine may jump over provably idle spans (see API.md, "Event-horizon
scheduling").  The contract has two halves:

* **Invisible** — a skipping run is bit-identical to a ticking run: same
  measurement summary, same ejection counts, same RNG stream position,
  across every flow-control family, open and closed loop.  The engine
  state machine (``tests/sim/test_engine_machine.py``) checks it after
  every step against a reference that never skips; here only the
  checkpoints taken at a pending wake point stay.
* **Actually skips** — a quiescent network drains in O(in-flight events)
  ticks and an idle network advances 100k cycles without ticking once,
  under either engine backend (both run the one ``Simulator`` loop).
"""

from __future__ import annotations

import dataclasses

from repro.metrics.stats import MetricsCollector
from repro.sim.config import NEVER, SimulationConfig
from repro.sim.spec import ScenarioSpec, prepare

#: Low enough that real idle gaps open up (the 0.004 spec below skips
#: roughly three cycles in four), high enough that traffic still flows.
IDLE_RATE = 0.004


class TickCounter:
    """Cycle listener speaking the wake contract; counts ticks vs skips."""

    def __init__(self):
        self.ticks = 0
        self.skipped = 0

    def __call__(self, cycle: int) -> None:
        self.ticks += 1

    def next_wake(self, cycle: int) -> int:
        return NEVER

    def skip_span(self, start: int, end: int) -> None:
        self.skipped += end - start


def spec_for(design: str, **overrides) -> ScenarioSpec:
    kwargs = dict(
        design=design,
        topology="torus:4x4",
        injection_rate=IDLE_RATE,
        seed=11,
        warmup=300,
        measure=1200,
    )
    if design in ("CBS-1VC", "WBFC-FLIT-1VC"):
        from repro.network.switching import Switching

        kwargs["config"] = SimulationConfig(
            num_vcs=1, buffer_depth=8, switching=Switching.WORMHOLE_NONATOMIC
        )
    kwargs.update(overrides)
    return ScenarioSpec(**kwargs)


def count_ticks(sim) -> list[int]:
    """Record every cycle ``sim`` ticks, on either engine (the soa
    backend takes no cycle listener but a session's sampler, so wrap the
    cycle body itself)."""
    ticked: list[int] = []
    tick = sim._tick

    def counted() -> None:
        ticked.append(sim.cycle)
        tick()

    sim._tick = counted
    return ticked


def assert_calendars_hold_only_future_events(prepared) -> None:
    """What the heap-free ``next_event_cycle`` minimum relies on: no stale
    key below the current cycle and no empty bucket in any calendar."""
    net, cycle = prepared.network, prepared.simulator.cycle
    for calendar in (net._arrivals, net._credits, net._ejections):
        assert all(when >= cycle and events for when, events in calendar.items())


class TestSkipVsTickIdentity:
    """The "invisible" half — skipping runs equal ticking runs, open and
    closed loop, every family — is an observable of
    ``tests/sim/test_engine_machine.py``, whose reference never skips;
    this keeps the half a machine cannot see: that skipping happens."""

    def test_skipping_engages_at_low_rate(self):
        # Not just identical — the fast path must actually fire, or the
        # machine's skip-vs-tick comparison is vacuous.
        spec = spec_for("WBFC-2VC")
        prepared = prepare(spec)
        sim = prepared.simulator
        counter = TickCounter()
        sim.cycle_listeners.append(counter)
        sim.run(3000)
        assert counter.ticks + counter.skipped == 3000
        assert counter.skipped > 1000, (
            f"only {counter.skipped} of 3000 cycles skipped at rate "
            f"{IDLE_RATE}; the event horizon is not engaging"
        )

    def test_soa_ticks_fewer_cycles_than_it_simulates(self):
        prepared = prepare(spec_for("WBFC-2VC", backend="soa"))
        assert prepared.backend == "soa"
        sim = prepared.simulator
        ticked = count_ticks(sim)
        assert sim.run(3000) == 3000
        assert len(ticked) < 2000, (
            f"soa ticked {len(ticked)} of 3000 cycles at rate {IDLE_RATE}; "
            "it is not running the skipping loop"
        )


class TestQuiescentDrain:
    def test_drain_takes_o_events_ticks(self):
        spec = spec_for("WBFC-2VC", injection_rate=0.1)
        prepared = prepare(spec)
        sim, workload = prepared.simulator, prepared.workload
        counter = TickCounter()
        sim.cycle_listeners.append(counter)
        sim.run(300)
        workload.stop()
        counter.ticks = counter.skipped = 0
        assert sim.drain()
        # Draining ~a dozen in-flight packets must cost ticks proportional
        # to those events, not to the cycle budget.
        assert counter.ticks < 200

    def test_idle_network_advances_without_ticking(self):
        spec = spec_for("WBFC-2VC", injection_rate=0.1)
        prepared = prepare(spec)
        sim, workload = prepared.simulator, prepared.workload
        sim.run(300)
        workload.stop()
        assert sim.drain()
        counter = TickCounter()
        sim.cycle_listeners.append(counter)
        start = sim.cycle
        sim.run(100_000)
        assert sim.cycle == start + 100_000
        assert counter.ticks == 0
        assert counter.skipped == 100_000

    def test_idle_soa_network_advances_without_ticking(self):
        spec = spec_for("WBFC-2VC", injection_rate=0.1, backend="soa")
        prepared = prepare(spec)
        assert prepared.backend == "soa"
        sim, workload = prepared.simulator, prepared.workload
        sim.run(300)
        workload.stop()
        assert sim.drain()
        ticked = count_ticks(sim)
        start = sim.cycle
        sim.run(100_000)
        assert sim.cycle == start + 100_000
        assert ticked == []

    def test_contract_less_listener_disables_skipping(self):
        # Graceful degradation: a legacy listener (no next_wake/skip_span)
        # pins the loop to ticking every cycle — never wrong results.
        spec = spec_for("WBFC-2VC", injection_rate=0.0)
        prepared = prepare(spec)
        sim = prepared.simulator
        ticks = []
        sim.cycle_listeners.append(ticks.append)
        sim.run(500)
        assert len(ticks) == 500


class TestWakeStateCheckpoint:
    def test_snapshot_at_pending_wake_point_restores_identically(self):
        # run_until with a mid-gap cycle target hands control back at the
        # *wake point* the skip landed on, before that cycle is ticked —
        # the workload's pre-drawn Bernoulli row is still stashed.  A
        # snapshot here captures that in-flight wake state, and a restored
        # twin must consume it exactly like the run that never paused.
        spec = spec_for("WBFC-2VC", measure=1200)
        baseline = prepare(spec)
        sim = baseline.simulator
        sim.run_until(lambda: sim.cycle >= 381, 5000)
        assert baseline.workload._stash is not None, (
            "scenario drift: the stop no longer lands on a pending wake "
            "point; pick a target cycle inside an idle gap"
        )
        snap = sim.snapshot()
        ref_summary, ref_fp = _resume_measured(baseline, spec.measure)

        twin = prepare(spec)
        twin.simulator.restore(snap)
        assert twin.simulator.cycle == sim.cycle - spec.measure
        assert twin.workload._stash is not None
        assert _resume_measured(twin, spec.measure) == (ref_summary, ref_fp)

    def test_next_event_cycle_survives_restore_and_flush(self):
        # next_event_cycle is derived from the calendars alone, so it must
        # read the same after a restore into a twin and after the soa
        # engine flushes its array calendars back into the object network.
        spec = spec_for("WBFC-2VC", injection_rate=0.1)
        baseline = prepare(spec)
        sim = baseline.simulator
        sim.run(150)
        snap = sim.snapshot()
        reference = baseline.network.next_event_cycle(sim.cycle)
        assert sim.cycle <= reference < NEVER  # flits are in flight
        assert_calendars_hold_only_future_events(baseline)

        twin = prepare(spec)
        twin.simulator.restore(snap)
        assert twin.network.next_event_cycle(twin.simulator.cycle) == reference
        assert_calendars_hold_only_future_events(twin)

        soa = prepare(dataclasses.replace(spec, backend="soa"))
        assert soa.backend == "soa"
        soa.simulator.run(150)
        soa.simulator.snapshot()  # flush: arrays -> object graph
        assert soa.network.next_event_cycle(soa.simulator.cycle) == reference
        assert_calendars_hold_only_future_events(soa)

        # The restored calendars must keep driving the horizon correctly.
        sim.run(600)
        twin.simulator.run(600)
        assert twin.network.packets_ejected == baseline.network.packets_ejected
        assert_calendars_hold_only_future_events(twin)


def _resume_measured(prepared, measure):
    sim = prepared.simulator
    collector = MetricsCollector(prepared.network)
    collector.begin(sim.cycle)
    sim.run(measure)
    collector.end(sim.cycle)
    fingerprint = (
        sim.cycle,
        prepared.network.packets_ejected,
        prepared.workload.rng.bit_generator.state["state"],
    )
    return collector.summary(), fingerprint


class TestRunUntilWakePoints:
    def test_monotone_predicate_checked_at_wake_points_only(self):
        # A time-derived predicate can flip mid-span; the engine only
        # looks at wake points, so it may sail past the target — exactly
        # what the contract documents.
        spec = spec_for("WBFC-2VC", injection_rate=0.0)
        prepared = prepare(spec)
        sim = prepared.simulator
        target = sim.cycle + 123
        hit = sim.run_until(lambda: sim.cycle == target, 1000)
        assert not hit and sim.cycle == target + 877  # ran to the deadline
