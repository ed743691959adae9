"""Cycle-driven simulation engine with event-horizon idle skipping.

Runs a :class:`~repro.network.network.Network` against a workload (any
object exposing ``step(cycle, network)``), with an optional deadlock
watchdog and per-cycle listeners.  All experiments and tests drive their
simulations through this one loop.

Event-horizon scheduling (see API.md for the full wake contract): when
the network is fully quiescent — no router stage has work, no NIC has
backlog, which provably implies zero buffered flits — the only things
that can change state are a scheduled in-flight event, flow-control
token maintenance, a periodic listener, or a workload injection.  Each
of those components reports the next cycle it could act
(``next_event_cycle`` / ``next_wake`` / ``next_active_cycle``); the
minimum is the *horizon*, and every cycle strictly before it is skipped
in O(1) per component (``skip_cycles`` / ``skip_span``) while
``self.cycle`` advances exactly as if each cycle had been ticked.
Workloads keep drawing their per-cycle Bernoulli RNG inside the scan, so
a skipping run is bit-identical to a ticking one (pinned by the golden
traces and the skip-vs-tick suite).  Components that predate the
contract simply disable skipping: a listener without ``next_wake`` or a
workload without ``next_active_cycle`` degrades to the plain per-cycle
loop, never to wrong results.

This loop is the only one: an array backend (``repro.sim.soa``)
subclasses :class:`Simulator` and replaces the cycle body (``_tick``)
and the two questions the skip asks of the router pipeline state
(``_is_quiescent``, ``_next_event_cycle``) with answers read from its
arrays.  Flow-control state is never arrayed, so ``next_wake`` and
``skip_cycles`` are asked of the scheme itself under either engine.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Callable, Protocol

from ..registry import ENGINE_BACKENDS
from .deadlock import Watchdog

if TYPE_CHECKING:  # pragma: no cover
    from ..network.network import Network
    from .checkpoint import Snapshot

__all__ = ["Workload", "Simulator", "BackendUnsupported"]


class BackendUnsupported(RuntimeError):
    """A backend that cannot drive a configuration; nothing raises it.

    Every registered backend drives every network the simulator can
    build.  The name stays importable for callers written when ``soa``
    refused some (``reason``: one line; ``witness``: the offending
    dimensions).
    """

    def __init__(self, reason: str, witness: tuple = ()):
        super().__init__(reason)
        self.reason = reason
        self.witness = witness


class Workload(Protocol):
    """Anything that injects packets into the network over time."""

    def step(self, cycle: int, network: "Network") -> None:  # pragma: no cover
        """Offer this cycle's new packets to the NICs."""
        ...

    def stop(self) -> None:  # pragma: no cover
        """Stop offering new packets (drain phase); in-flight traffic
        keeps moving.  Works for every workload kind — synthetic, trace
        replay, closed-loop — unlike zeroing an injection probability."""
        ...


class Simulator:
    """Drives the per-cycle phase schedule."""

    def __init__(
        self,
        network: "Network",
        workload: Workload | None = None,
        *,
        watchdog: Watchdog | None = None,
        skip_idle: bool = True,
    ):
        self.network = network
        self.workload = workload
        self.watchdog = watchdog if watchdog is not None else Watchdog(network)
        self.cycle = 0
        #: Event-horizon skipping master switch.  Off forces the plain
        #: per-cycle loop (the skip-vs-tick identity tests' reference).
        self.skip_idle = skip_idle
        #: Called as ``fn(cycle)`` after each cycle (metrics hooks).
        #: Listeners that also honor the wake contract (``next_wake`` +
        #: ``skip_span``, see API.md) keep idle skipping available; any
        #: listener without it pins the loop to ticking every cycle.
        self.cycle_listeners: list[Callable[[int], None]] = []
        #: Attached :class:`~repro.telemetry.session.TelemetrySession`, if any.
        self.telemetry = None
        #: Opt-in invariant auditor (``SimConfig.sanitize`` or
        #: ``REPRO_SANITIZE=1``); ``None`` — and zero per-cycle cost —
        #: when disabled, since nothing joins ``cycle_listeners`` and the
        #: analysis package is never even imported.
        self.sanitizer = None
        if network.config.sanitize or os.environ.get(
            "REPRO_SANITIZE", ""
        ) not in ("", "0"):
            from ..analysis.sanitizer import InvariantSanitizer

            self.sanitizer = InvariantSanitizer(network)
            self.cycle_listeners.append(self.sanitizer)

    def run(self, cycles: int) -> int:
        """Advance the simulation by ``cycles``; returns the current cycle."""
        end = self.cycle + cycles
        while self.cycle < end:
            self._advance(end)
        return self.cycle

    def run_until(self, predicate: Callable[[], bool], max_cycles: int) -> bool:
        """Run until ``predicate()`` holds; False if ``max_cycles`` elapsed.

        The predicate is re-checked only at *wake points* — cycles the
        event-horizon scheduler actually ticks.  That is exact for
        predicates that cannot flip on a fully quiescent network (nothing
        they could observe changes inside a skipped span): occupancy
        predicates like :meth:`drain`'s, ejection counts, workload
        completion.  A predicate reading ``self.cycle`` or other
        time-derived state may flip mid-span and be seen late.
        """
        deadline = self.cycle + max_cycles
        while self.cycle < deadline:
            if predicate():
                return True
            self._advance(deadline)
        return predicate()

    def drain(self, max_cycles: int = 200_000) -> bool:
        """Run until the network is completely empty of flits and backlog.

        The occupancy predicate is monotone over quiescent spans (buffered,
        backlog and in-network counts only change when something ticks), so
        a fully quiescent network drains in O(in-flight events) ticks, not
        O(cycles).
        """
        def empty() -> bool:
            snap = self.network.occupancy_snapshot()
            return (
                snap["buffered"] == 0
                and snap["backlog"] == 0
                and snap["in_network"] == 0
            )

        return self.run_until(empty, max_cycles)

    # -- event-horizon scheduling ---------------------------------------------

    def _advance(self, end: int) -> None:
        """Tick once, or skip a provably idle span (never past ``end``)."""
        if self.skip_idle and self._is_quiescent() and self._skip_to_wake(end):
            return
        self._tick()

    def _is_quiescent(self) -> bool:
        """No router stage or NIC can do work this cycle."""
        return self.network.is_quiescent()

    def _next_event_cycle(self, cycle: int) -> int:
        """Earliest cycle ``>= cycle`` with a scheduled delivery."""
        return self.network.next_event_cycle(cycle)

    def _skip_to_wake(self, end: int) -> bool:
        """From a quiescent boundary, jump to the next possible wake cycle.

        Returns True if at least one cycle was skipped (``self.cycle``
        advanced; the wake cycle itself is ticked by the caller's next
        iteration), False when some component needs the current cycle
        ticked or does not speak the wake contract.
        """
        cycle = self.cycle
        network = self.network
        horizon = min(
            end,
            self._next_event_cycle(cycle),
            network.flow_control.next_wake(cycle),
        )
        if horizon <= cycle:
            return False
        watchdog_skip = getattr(self.watchdog, "skip_cycles", None)
        if watchdog_skip is None:
            # A custom watchdog predating the wake contract: its per-cycle
            # observation cannot be replayed, so never skip under it.
            return False
        for listener in self.cycle_listeners:
            next_wake = getattr(listener, "next_wake", None)
            if next_wake is None or not hasattr(listener, "skip_span"):
                return False
            wake = next_wake(cycle)
            if wake <= cycle:
                return False
            if wake < horizon:
                horizon = wake
        workload = self.workload
        if workload is not None:
            next_active = getattr(workload, "next_active_cycle", None)
            if next_active is None:
                return False
            horizon = next_active(cycle, horizon, network)
            if horizon <= cycle:
                return False
        # Cycles [cycle, horizon) are provably inert for every component;
        # account for them in O(1) each and jump.
        span = horizon - cycle
        network.flow_control.skip_cycles(span)
        network.flits_moved_this_cycle = 0
        watchdog_skip(cycle, horizon)
        for listener in self.cycle_listeners:
            listener.skip_span(cycle, horizon)
        self.cycle = horizon
        return True

    # -- checkpoint/restore ---------------------------------------------------

    def _structure(self) -> tuple:
        """Fingerprint of everything a snapshot assumes about its host."""
        net = self.network
        return (
            type(net.topology).__name__,
            getattr(net.topology, "radices", net.topology.num_nodes),
            net.topology.num_ports,
            net.flow_control.name,
            type(net.routing).__name__,
            type(self.workload).__name__ if self.workload is not None else None,
            net.config,
        )

    def snapshot(self) -> "Snapshot":
        """Capture every stateful layer at the current cycle boundary.

        The returned :class:`~repro.sim.checkpoint.Snapshot` is fully
        self-contained (one deep copy with a shared memo, so packets
        referenced from several layers stay one object) and can be
        restored into this simulator or a freshly built structural twin;
        the resumed run is bit-identical to one that never paused.
        """
        import copy

        from .checkpoint import Snapshot

        state = {
            "cycle": self.cycle,
            "network": self.network.snapshot_state(),
            "watchdog": self.watchdog.snapshot_state(),
            "workload": (
                self.workload.snapshot_state()
                if self.workload is not None
                and hasattr(self.workload, "snapshot_state")
                else None
            ),
        }
        return Snapshot(structure=self._structure(), state=copy.deepcopy(state))

    def restore(self, snapshot: "Snapshot") -> None:
        """Rewind this simulator to ``snapshot``'s instant.

        Deep-copies the snapshot's state again, so one snapshot can seed
        any number of restored runs without cross-contamination.
        """
        import copy

        if snapshot.structure != self._structure():
            raise ValueError(
                "snapshot structure does not match this simulator: "
                f"{snapshot.structure!r} != {self._structure()!r}"
            )
        state = copy.deepcopy(snapshot.state)
        self.cycle = state["cycle"]
        self.network.restore_state(state["network"])
        self.watchdog.restore_state(state["watchdog"])
        if state["workload"] is not None:
            self.workload.restore_state(state["workload"])

    def _tick(self) -> None:
        cycle = self.cycle
        network = self.network
        network.begin_cycle(cycle)
        if self.workload is not None:
            self.workload.step(cycle, network)
        # One NIC load per cycle, after the workload's offers, so packets
        # offered this cycle become injection-eligible immediately.
        network.load_nics(cycle)
        network.run_router_phases(cycle)
        self.watchdog.observe(cycle)
        for listener in self.cycle_listeners:
            listener(cycle)
        self.cycle = cycle + 1


@ENGINE_BACKENDS.register("object")
def _object_backend(simulator: Simulator) -> Simulator:
    """The reference engine: the built ``Simulator`` already is one."""
    return simulator
