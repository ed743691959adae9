"""Network assembly: routers, links, NICs, and the event timeline.

:class:`Network` wires a topology into routers and credit channels,
attaches a routing function and a flow-control scheme, and owns the delay
queues that model link and credit latency.  The simulation engine drives
it one phase at a time so all routers observe consistent state.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING

from ..sim.config import NEVER, SimulationConfig
from ..telemetry.probes import ProbeBus
from ..topology.base import LOCAL_PORT, Topology

if TYPE_CHECKING:  # pragma: no cover - type hints only, avoids import cycle
    from ..flowcontrol.base import FlowControl
    from ..routing.base import RoutingFunction
from .buffers import InputVC, OutputVC, VCState
from .flit import Flit, Packet
from .nic import NIC
from .router import Router
from .switching import Switching

__all__ = ["Network"]


class Network:
    """A complete simulated network instance."""

    def __init__(
        self,
        topology: Topology,
        routing: "RoutingFunction",
        flow_control: "FlowControl",
        config: SimulationConfig,
    ):
        topology.validate()
        self.topology = topology
        self.routing = routing
        self.flow_control = flow_control
        self.config = config
        #: Activity counters feeding the dynamic-energy model.  The five
        #: hot ones are plain attributes (bumping a slot is much cheaper
        #: than a dict update per flit event); the ``activity`` property
        #: folds them into the dict view readers expect.
        self._activity: dict[str, int] = defaultdict(int)
        self.act_buffer_reads = 0
        self.act_buffer_writes = 0
        self.act_xbar_traversals = 0
        self.act_link_traversals = 0
        self.act_va_grants = 0
        #: Hot-path config values, cached (config is fixed at construction).
        self._atomic = config.switching is Switching.WORMHOLE_ATOMIC
        self._routing_delay = config.routing_delay
        self.flits_in_network = 0
        self.flits_moved_this_cycle = 0
        self.packets_ejected = 0
        #: O(1) occupancy counters, kept in lock-step with the buffers so
        #: the watchdog and ``drain`` never re-sum every VC: flits held in
        #: non-LOCAL input buffers, and packets waiting at NICs (queued or
        #: staged, matching ``NIC.backlog``).
        self.buffered_flits = 0
        self.backlog_packets = 0
        #: The telemetry seam: every instrumented call site dispatches into
        #: this bus.  ``packet_ejected`` always fires (the metrics collector
        #: subscribes it); all detailed per-flit probes are gated on
        #: ``probes.active`` so an unobserved simulation stays full speed.
        self.probes = ProbeBus()
        #: Active sets: per-phase router sets (RC, VA, SA — routers with at
        #: least one VC in that pipeline stage, maintained by the routers'
        #: ``on_vc_state_change``), and NICs with queued packets to stage.
        self.phase_routers: tuple[set[int], set[int], set[int]] = (set(), set(), set())
        self._pending_nic_nodes: set[int] = set()

        self.routers = [Router(node, self) for node in range(topology.num_nodes)]
        self._wire_links()
        self.nics = [
            NIC(node, self.routers[node].inputs[LOCAL_PORT], self)
            for node in range(topology.num_nodes)
        ]
        self._arrivals: dict[int, list[tuple[InputVC, Flit]]] = defaultdict(list)
        self._credits: dict[int, list[tuple[OutputVC, bool]]] = defaultdict(list)
        self._ejections: dict[int, list[tuple[int, Flit]]] = defaultdict(list)
        flow_control.attach(self)

    @property
    def activity(self) -> dict[str, int]:
        """Activity counters as a dict (hot counters folded in on read)."""
        d = self._activity
        d["buffer_reads"] = self.act_buffer_reads
        d["buffer_writes"] = self.act_buffer_writes
        d["xbar_traversals"] = self.act_xbar_traversals
        d["link_traversals"] = self.act_link_traversals
        d["va_grants"] = self.act_va_grants
        return d

    # -- construction ---------------------------------------------------------

    def _wire_links(self) -> None:
        for src, out_port, dst, in_port in self.topology.channels():
            downstream = self.routers[dst].inputs[in_port]
            mirrors = [OutputVC(ivc) for ivc in downstream]
            for ivc, ovc in zip(downstream, mirrors):
                ivc.feeder = ovc
            self.routers[src].outputs[out_port] = mirrors

    # -- accessors --------------------------------------------------------------

    def input_vc(self, node: int, port: int, vc: int) -> InputVC:
        return self.routers[node].inputs[port][vc]

    def all_input_vcs(self) -> list[InputVC]:
        return [
            ivc
            for router in self.routers
            for port_list in router.inputs
            for ivc in port_list
        ]

    # -- active-set registry -------------------------------------------------------

    def note_nic_pending(self, node: int, pending: bool) -> None:
        """NIC ``node`` has packets queued for staging (or just ran dry)."""
        if pending:
            self._pending_nic_nodes.add(node)
        else:
            self._pending_nic_nodes.discard(node)

    # -- event scheduling ---------------------------------------------------------

    def schedule_arrival(self, ivc: InputVC, flit: Flit, when: int) -> None:
        self._arrivals[when].append((ivc, flit))

    def schedule_credit(self, ovc: OutputVC, is_tail: bool, when: int) -> None:
        self._credits[when].append((ovc, is_tail))

    def schedule_ejection(self, node: int, flit: Flit, when: int) -> None:
        self._ejections[when].append((node, flit))

    def is_quiescent(self) -> bool:
        """True when no router stage or NIC can do work this cycle.

        Empty phase sets imply zero buffered flits and zero staged packets
        (any buffered flit or staging owner puts its VC in a non-IDLE state,
        which registers its router in a phase set), and an empty pending-NIC
        set means no backlog to stage — so a quiescent network's state can
        only change through a scheduled event, a flow-control wake, or a
        workload injection, which is exactly what the event-horizon skip in
        :class:`repro.sim.engine.Simulator` bounds the gap by.
        """
        rc, va, sa = self.phase_routers
        return not (rc or va or sa or self._pending_nic_nodes)

    def next_event_cycle(self, cycle: int) -> int:
        """Earliest cycle ``>= cycle`` with a scheduled delivery.

        Returns :data:`~repro.sim.config.NEVER` when nothing is in flight.
        ``begin_cycle`` pops every ticked cycle's buckets, a skip never
        jumps past a scheduled cycle and no empty bucket is ever stored,
        so the three calendars hold only a handful of future keys and
        their minimum is the answer.
        """
        return min(
            (*self._arrivals, *self._credits, *self._ejections), default=NEVER
        )

    # -- per-cycle phases -----------------------------------------------------------

    def begin_cycle(self, cycle: int) -> None:
        """Apply in-flight deliveries, then stage fresh NIC packets."""
        self.flits_moved_this_cycle = 0
        for ovc, is_tail in self._credits.pop(cycle, ()):
            ovc.return_credit(release=is_tail)
        for ivc, flit in self._arrivals.pop(cycle, ()):
            self._deliver(ivc, flit, cycle)
        for node, flit in self._ejections.pop(cycle, ()):
            self._eject(node, flit, cycle)

    def load_nics(self, cycle: int) -> None:
        """Stage queued NIC packets (one per NIC per cycle, NI serialization).

        Runs after the workload's offers so packets offered this cycle are
        injection-eligible the same cycle.  Only NICs with a non-empty
        source queue are visited; loading order across NICs is immaterial
        (each touches only its own staging slots) but kept in node order.
        """
        pending = self._pending_nic_nodes
        if not pending:
            return
        nics = self.nics
        for node in sorted(pending) if len(pending) > 1 else list(pending):
            nics[node].load(cycle)

    def run_router_phases(self, cycle: int) -> None:
        # Each phase visits only routers with work in that stage, snapshot
        # in node order at phase start (``sorted`` materializes the set).
        # Earlier phases may ADD routers to later phases' sets (RC completes
        # -> a VC now waits for VA) — those are picked up because the later
        # snapshot is taken after the earlier phase ran, exactly as the
        # exhaustive scan visited every router each phase.  Cross-router
        # effects (arrivals, credits, ejections) are scheduled into future
        # cycles, and phase calls on routers that drained mid-cycle were
        # no-ops, so the visit set matches the full scan bit-for-bit.
        routers = self.routers
        rc, va, sa = self.phase_routers
        # len <= 1 needs no ordering; list() still snapshots the set.
        for node in sorted(rc) if len(rc) > 1 else list(rc):
            routers[node].route_compute(cycle)
        self.flow_control.pre_cycle(cycle)
        for node in sorted(va) if len(va) > 1 else list(va):
            routers[node].vc_allocate(cycle)
        for node in sorted(sa) if len(sa) > 1 else list(sa):
            routers[node].switch_allocate(cycle)

    # -- delivery -------------------------------------------------------------------

    def _deliver(self, ivc: InputVC, flit: Flit, cycle: int) -> None:
        was_front = not ivc.flits
        ivc.push(flit)
        self.act_buffer_writes += 1
        if self.probes.active:
            self.probes.flit_delivered(ivc, flit, cycle)
        self.flow_control.on_slot_filled(ivc, flit)
        if flit.is_head:
            flit.packet.hops += 1
            if self._atomic:
                if ivc._owner is not flit.packet:
                    raise RuntimeError(
                        f"head of packet {flit.packet.pid} arrived at "
                        f"{ivc.label()} owned by "
                        f"{ivc.owner.pid if ivc.owner else None}"
                    )
                ivc.stage_ready = cycle + self._routing_delay
                ivc.state = VCState.ROUTING
            elif was_front:
                # Non-atomic: this head is at the buffer front; start RC.
                ivc.owner = flit.packet
                ivc.stage_ready = cycle + self._routing_delay
                ivc.state = VCState.ROUTING

    def _eject(self, node: int, flit: Flit, cycle: int) -> None:
        packet = flit.packet
        if flit.is_tail:
            if node != packet.dst:
                raise RuntimeError(
                    f"packet {packet.pid} ejected at node {node}, "
                    f"destination was {packet.dst}"
                )
            packet.ejected_cycle = cycle
            self.packets_ejected += 1
            self.flits_in_network -= packet.length
            self.probes.packet_ejected(packet, cycle)

    # -- diagnostics -------------------------------------------------------------------

    def inflight_snapshot(
        self,
    ) -> tuple[dict[InputVC, int], dict[OutputVC, int]]:
        """Scheduled-but-undelivered events, summed per endpoint.

        Returns ``(arrivals, credits)``: flits in flight toward each input
        VC and credits in flight toward each output VC.  The credit
        conservation law the sanitizer checks at every cycle boundary is,
        per link VC::

            ovc.credits + len(downstream.flits)
                + arrivals[downstream] + credits[ovc] == capacity
        """
        arrivals: dict[InputVC, int] = {}
        for events in self._arrivals.values():
            for ivc, _flit in events:
                arrivals[ivc] = arrivals.get(ivc, 0) + 1
        credits: dict[OutputVC, int] = {}
        for events in self._credits.values():
            for ovc, _is_tail in events:
                credits[ovc] = credits.get(ovc, 0) + 1
        return arrivals, credits

    def occupancy_snapshot(self) -> dict[str, int]:
        """Flit counts by location, for the deadlock watchdog and tests.

        O(1): reads the counters maintained at delivery, send, offer and
        release time.  ``recount_occupancy`` recomputes the same numbers
        from the buffers themselves; an invariant test keeps them honest.
        """
        return {
            "buffered": self.buffered_flits,
            "in_network": self.flits_in_network,
            "backlog": self.backlog_packets,
        }

    # -- checkpoint/restore -------------------------------------------------------------

    def snapshot_state(self) -> dict:
        """Every mutable layer as a plain-data tree (repro.sim.checkpoint).

        Structural objects are encoded positionally — an in-flight arrival
        or credit names its endpoint by ``(node, port, vc)`` — so the tree
        can be restored into a freshly built structural twin.  The flow
        control is captured last: buffer snapshots flush deferred WBFC
        lane rotations, and the scheme's stats must be read after that.
        Derived indices (phase-router sets, pending-NIC set, per-router
        stage sets, lane occupancy) are recomputed on restore, with the
        invariant sanitizer's deep checks as the agreement oracle.
        """
        return {
            "activity": dict(self._activity),
            "hot_activity": (
                self.act_buffer_reads,
                self.act_buffer_writes,
                self.act_xbar_traversals,
                self.act_link_traversals,
                self.act_va_grants,
            ),
            "flits_in_network": self.flits_in_network,
            "flits_moved_this_cycle": self.flits_moved_this_cycle,
            "packets_ejected": self.packets_ejected,
            "buffered_flits": self.buffered_flits,
            "backlog_packets": self.backlog_packets,
            "routers": [router.snapshot_state() for router in self.routers],
            "nics": [nic.snapshot_state() for nic in self.nics],
            "arrivals": {
                when: [((ivc.node, ivc.port, ivc.vc), flit) for ivc, flit in events]
                for when, events in self._arrivals.items()
                if events
            },
            "credits": {
                when: [
                    (
                        (ovc.downstream.node, ovc.downstream.port, ovc.downstream.vc),
                        is_tail,
                    )
                    for ovc, is_tail in events
                ]
                for when, events in self._credits.items()
                if events
            },
            "ejections": {
                when: list(events)
                for when, events in self._ejections.items()
                if events
            },
            "flow_control": self.flow_control.snapshot_state(),
        }

    def restore_state(self, state: dict) -> None:
        self._activity = defaultdict(int)
        self._activity.update(state["activity"])
        (
            self.act_buffer_reads,
            self.act_buffer_writes,
            self.act_xbar_traversals,
            self.act_link_traversals,
            self.act_va_grants,
        ) = state["hot_activity"]
        self.flits_in_network = state["flits_in_network"]
        self.flits_moved_this_cycle = state["flits_moved_this_cycle"]
        self.packets_ejected = state["packets_ejected"]
        self.buffered_flits = state["buffered_flits"]
        self.backlog_packets = state["backlog_packets"]
        for router, router_state in zip(self.routers, state["routers"]):
            router.restore_state(router_state)
        for nic, nic_state in zip(self.nics, state["nics"]):
            nic.restore_state(nic_state)
        self._arrivals = defaultdict(list)
        for when, events in state["arrivals"].items():
            self._arrivals[when] = [
                (self.input_vc(*addr), flit) for addr, flit in events
            ]
        self._credits = defaultdict(list)
        for when, events in state["credits"].items():
            self._credits[when] = [
                (self.input_vc(*addr).feeder, is_tail) for addr, is_tail in events
            ]
        self._ejections = defaultdict(list)
        for when, events in state["ejections"].items():
            self._ejections[when] = list(events)
        # After the buffers: the scheme recounts lane occupancy from them.
        self.flow_control.restore_state(state["flow_control"])
        self.rebuild_stage_sets()
        self._pending_nic_nodes = {nic.node for nic in self.nics if nic.queue}

    def rebuild_stage_sets(self) -> None:
        """Recount every router's stage sets and ``phase_routers`` from the
        buffers' states, after a restore or an engine flush wrote those
        states without the incremental bookkeeping."""
        rc, va, sa = set(), set(), set()
        for router in self.routers:
            (
                router._routing_vcs,
                router._waiting_va_vcs,
                router._active_vcs,
            ) = router.recount_stage_sets()
            router._sorted_routing = None
            router._sorted_waiting = None
            router._sorted_active = None
            if router._routing_vcs:
                rc.add(router.node)
            if router._waiting_va_vcs:
                va.add(router.node)
            if router._active_vcs:
                sa.add(router.node)
        self.phase_routers = (rc, va, sa)

    def recount_occupancy(self) -> dict[str, int]:
        """Recompute ``occupancy_snapshot`` exhaustively from the buffers."""
        buffered = sum(
            len(ivc)
            for router in self.routers
            for port_list in router.inputs[1:]
            for ivc in port_list
        )
        return {
            "buffered": buffered,
            "in_network": self.flits_in_network,
            "backlog": sum(nic.backlog for nic in self.nics),
        }
