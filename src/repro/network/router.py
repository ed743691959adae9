"""Canonical 4-stage wormhole router with credit-based flow control.

Pipeline (head flits): route computation (RC) -> VC allocation (VA) ->
switch allocation (SA) -> switch + link traversal (ST/LT).  Body and tail
flits inherit the head's allocation and only arbitrate for the switch.
Buffer allocation is atomic (Equation 3): a downstream VC is granted only
when its upstream credit mirror shows it empty and unallocated.

The router consults the attached flow-control scheme at two points:
*which* escape VC class a head may request (``escape_vc_choices``) and
*whether* an injection into a ring may proceed (``allow_escape``, where
WBFC also performs its black-marking side effect).

Active-set scheduling: instead of scanning every input VC each cycle, the
router keeps one set per pipeline stage (ROUTING / WAITING_VA / ACTIVE),
maintained by :class:`~repro.network.buffers.InputVC`'s state setter at
every transition point (delivery, NIC staging, RC/VA completion, tail
departure).  Each phase visits only its stage's set, iterated in the same
(port, vc) order as the old full scan, so allocation and arbitration are
bit-identical to the scan-based kernel — only the work is proportional to
live VCs rather than ``num_ports x num_vcs``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..topology.base import LOCAL_PORT
from .allocators import RoundRobinArbiter
from .buffers import InputVC, OutputVC, VCState
from .flit import Packet
from .switching import Switching

if TYPE_CHECKING:  # pragma: no cover
    from .network import Network

__all__ = ["Router"]


def _scan_order(ivc: InputVC) -> int:
    """Sort key reproducing the old full scan's (port, vc) visit order."""
    return ivc.order


class Router:
    """One router node: input buffers, output credit mirrors, allocators."""

    def __init__(self, node: int, network: Network):
        self.node = node
        self.network = network
        #: The network's probe bus, cached: the hot paths below test
        #: ``_probes.active`` per event site and that lookup must stay one
        #: attribute load.
        self._probes = network.probes
        cfg = network.config
        num_ports = network.topology.num_ports
        #: inputs[port][vc]; the LOCAL port holds the single NIC source queue.
        self.inputs: list[list[InputVC]] = []
        for port in range(num_ports):
            if port == LOCAL_PORT:
                # One staging slot per VC: the NI can prepare as many packets
                # concurrently as the router has VCs (per-VC injection queues).
                self.inputs.append(
                    [
                        InputVC(
                            node, LOCAL_PORT, vc, cfg.max_packet_length, is_escape=False
                        )
                        for vc in range(cfg.num_vcs)
                    ]
                )
            else:
                self.inputs.append(
                    [
                        InputVC(
                            node,
                            port,
                            vc,
                            cfg.buffer_depth,
                            is_escape=vc < cfg.num_escape_vcs,
                        )
                        for vc in range(cfg.num_vcs)
                    ]
                )
        #: outputs[port][vc] -> OutputVC mirror; None where unconnected.
        self.outputs: list[list[OutputVC] | None] = [None] * num_ports
        #: Hot-path config values, cached (config is fixed at construction).
        self._switching = cfg.switching
        self._atomic = cfg.switching is Switching.WORMHOLE_ATOMIC
        self._vc_alloc_delay = cfg.vc_alloc_delay
        self._st_link_delay = cfg.st_link_delay
        self._credit_delay = cfg.credit_delay
        self._has_adaptive = cfg.num_adaptive_vcs > 0
        self._va_arbiter = RoundRobinArbiter()
        self._sa_input_arbiters = [RoundRobinArbiter() for _ in range(num_ports)]
        self._sa_output_arbiters = [RoundRobinArbiter() for _ in range(num_ports)]
        #: Active sets: the VCs currently in each non-idle pipeline stage,
        #: mapped to the index of the network-level phase set mirroring
        #: which routers have work in that stage.
        self._routing_vcs: set[InputVC] = set()
        self._waiting_va_vcs: set[InputVC] = set()
        self._active_vcs: set[InputVC] = set()
        #: Scan-order snapshots of the stage sets, rebuilt lazily after any
        #: membership change.  A VC stays in one stage for several cycles
        #: (e.g. ACTIVE for a whole packet), so the sort is reused often.
        self._sorted_routing: list[InputVC] | None = None
        self._sorted_waiting: list[InputVC] | None = None
        self._sorted_active: list[InputVC] | None = None
        for port_list in self.inputs:
            for ivc in port_list:
                ivc.scheduler = self
                ivc.order = ivc.port * cfg.num_vcs + ivc.vc

    # -- active-set maintenance ------------------------------------------------

    def on_vc_state_change(self, ivc: InputVC, old: VCState, new: VCState) -> None:
        """Keep stage sets (and the network's per-phase router sets) in sync.

        Identity chains instead of an enum-keyed dict: this fires on every
        pipeline transition, and ``is`` checks are much cheaper than
        ``Enum.__hash__``.
        """
        phase_routers = self.network.phase_routers
        node = self.node
        if old is VCState.ROUTING:
            bucket = self._routing_vcs
            bucket.discard(ivc)
            self._sorted_routing = None
            if not bucket:
                phase_routers[0].discard(node)
        elif old is VCState.WAITING_VA:
            bucket = self._waiting_va_vcs
            bucket.discard(ivc)
            self._sorted_waiting = None
            if not bucket:
                phase_routers[1].discard(node)
        elif old is VCState.ACTIVE:
            bucket = self._active_vcs
            bucket.discard(ivc)
            self._sorted_active = None
            if not bucket:
                phase_routers[2].discard(node)
        if new is VCState.ROUTING:
            bucket = self._routing_vcs
            if not bucket:
                phase_routers[0].add(node)
            bucket.add(ivc)
            self._sorted_routing = None
        elif new is VCState.WAITING_VA:
            bucket = self._waiting_va_vcs
            if not bucket:
                phase_routers[1].add(node)
            bucket.add(ivc)
            self._sorted_waiting = None
        elif new is VCState.ACTIVE:
            bucket = self._active_vcs
            if not bucket:
                phase_routers[2].add(node)
            bucket.add(ivc)
            self._sorted_active = None

    def on_vc_occupancy_change(self, ivc: InputVC, delta: int) -> None:
        """A flit entered/left ``ivc``; maintain the O(1) buffered counter."""
        if self._probes.active:
            self._probes.buffer_occupancy(ivc, delta)
        if ivc.port != LOCAL_PORT:
            self.network.buffered_flits += delta
        if ivc.ring_id is not None and ivc.owner is None:
            # First flit into / last flit out of an unowned ring escape
            # buffer flips its worm-bubble status.
            if delta > 0:
                if len(ivc.flits) == 1:
                    self.network.flow_control.on_bubble_change(ivc, 1)
            elif not ivc.flits:
                self.network.flow_control.on_bubble_change(ivc, -1)

    def on_vc_bubble_change(self, ivc: InputVC, occupied_delta: int) -> None:
        """An owner change flipped ``ivc``'s worm-bubble status."""
        self.network.flow_control.on_bubble_change(ivc, occupied_delta)

    def recount_stage_sets(self) -> tuple[set[InputVC], set[InputVC], set[InputVC]]:
        """Recompute the stage sets exhaustively from the buffers' states.

        The incremental sets maintained by ``on_vc_state_change`` must
        always equal this ground truth; the invariant sanitizer compares
        them on its sampled deep checks.
        """
        routing: set[InputVC] = set()
        waiting: set[InputVC] = set()
        active: set[InputVC] = set()
        for port_list in self.inputs:
            for ivc in port_list:
                if ivc._state is VCState.ROUTING:
                    routing.add(ivc)
                elif ivc._state is VCState.WAITING_VA:
                    waiting.add(ivc)
                elif ivc._state is VCState.ACTIVE:
                    active.add(ivc)
        return routing, waiting, active

    # -- checkpoint/restore -----------------------------------------------------

    def snapshot_state(self) -> dict:
        """Buffers, credit mirrors and arbiter pointers; stage sets are
        derived state, recomputed by ``Network.rebuild_stage_sets``."""
        return {
            "inputs": [
                [ivc.snapshot_state() for ivc in port_list]
                for port_list in self.inputs
            ],
            "outputs": [
                None
                if mirrors is None
                else [(ovc.credits, ovc.allocated_to) for ovc in mirrors]
                for mirrors in self.outputs
            ],
            "va_ptr": self._va_arbiter._ptr,
            "sa_in_ptrs": [a._ptr for a in self._sa_input_arbiters],
            "sa_out_ptrs": [a._ptr for a in self._sa_output_arbiters],
        }

    def restore_state(self, state: dict) -> None:
        for port_list, port_state in zip(self.inputs, state["inputs"]):
            for ivc, ivc_state in zip(port_list, port_state):
                ivc.restore_state(ivc_state)
        for mirrors, mirrors_state in zip(self.outputs, state["outputs"]):
            if mirrors is None:
                continue
            for ovc, (credits, allocated_to) in zip(mirrors, mirrors_state):
                ovc.credits = credits
                ovc.allocated_to = allocated_to
        self._va_arbiter._ptr = state["va_ptr"]
        for arb, ptr in zip(self._sa_input_arbiters, state["sa_in_ptrs"]):
            arb._ptr = ptr
        for arb, ptr in zip(self._sa_output_arbiters, state["sa_out_ptrs"]):
            arb._ptr = ptr

    # -- pipeline stages ------------------------------------------------------

    def route_compute(self, cycle: int) -> None:
        """Resolve routing candidates for heads whose RC stage completed."""
        if not self._routing_vcs:
            return
        routing = self.network.routing
        vcs = self._sorted_routing
        if vcs is None:
            vcs = self._sorted_routing = sorted(self._routing_vcs, key=_scan_order)
        for ivc in vcs:
            if ivc._state is VCState.ROUTING and cycle >= ivc.stage_ready:
                head = ivc.head_flit()
                assert head is not None and head.is_head
                adaptive, escape = routing.route(self.node, head.packet)
                ivc.route_candidates = (adaptive, escape)
                ivc.stage_ready = cycle + self._vc_alloc_delay
                ivc.state = VCState.WAITING_VA
                ivc.va_first_request = None

    def vc_allocate(self, cycle: int) -> None:
        """Grant output VCs to waiting heads (adaptive first, then escape)."""
        if not self._waiting_va_vcs:
            return
        fc = self.network.flow_control
        vcs = self._sorted_waiting
        if vcs is None:
            vcs = self._sorted_waiting = sorted(self._waiting_va_vcs, key=_scan_order)
        requesters = [
            ivc
            for ivc in vcs
            if ivc._state is VCState.WAITING_VA and cycle >= ivc.stage_ready
        ]
        if len(requesters) == 1:
            # Rotating a single-element list is the identity; only the
            # arbiter pointer advance is observable.
            self._va_arbiter._ptr += 1
            granted = requesters
        else:
            granted = self._va_arbiter.rotated(requesters)
        for ivc in granted:
            head = ivc.head_flit()
            assert head is not None
            packet = head.packet
            if ivc.va_first_request is None:
                ivc.va_first_request = cycle
            adaptive_ports, escape_port = ivc.route_candidates
            if escape_port == LOCAL_PORT:
                self._grant(ivc, packet, LOCAL_PORT, 0, False, False, cycle)
                continue
            # Sticky escape: a head continuing along the ring it already
            # rides stays on the escape path.  Detouring to an adaptive VC
            # mid-ring and re-injecting later would create a partially
            # re-entered worm with no reservation budget — the liveness
            # hole analysed in repro.core.wbfc's module notes.
            in_ring_continuation = fc.is_in_ring_move(ivc, self.node, escape_port)
            if (
                self._has_adaptive
                and not in_ring_continuation
                and self._try_adaptive(ivc, packet, adaptive_ports, cycle)
            ):
                continue
            self._try_escape(ivc, packet, escape_port, cycle, in_ring_continuation)

    def switch_allocate(self, cycle: int) -> None:
        """Separable input-first switch allocation; one flit per port."""
        if not self._active_vcs:
            return
        # Group SA-eligible VCs by input port, in (port, vc) scan order; the
        # per-port arbiter pointer only advances on non-empty request lists,
        # so skipping ports with no ACTIVE VC matches the full scan exactly.
        vcs = self._sorted_active
        if vcs is None:
            vcs = self._sorted_active = sorted(self._active_vcs, key=_scan_order)
        outputs = self.outputs
        if len(vcs) == 1:
            # Lone ACTIVE VC: both arbiters see a one-element request list,
            # whose pick is the identity plus a pointer advance.
            ivc = vcs[0]
            if ivc._state is VCState.ACTIVE and cycle >= ivc.stage_ready and ivc.flits:
                out_port = ivc.out_port
                if out_port == LOCAL_PORT or outputs[out_port][ivc.out_vc].credits > 0:  # type: ignore[index]
                    self._sa_input_arbiters[ivc.port]._ptr += 1
                    self._sa_output_arbiters[out_port]._ptr += 1  # type: ignore[index]
                    self._send(ivc, cycle)
                elif self._probes.active:
                    self._probes.credit_stall(self.node, ivc, cycle)
            return
        eligible_by_port: dict[int, list[InputVC]] = {}
        for ivc in vcs:
            if (
                ivc._state is not VCState.ACTIVE
                or cycle < ivc.stage_ready
                or not ivc.flits
            ):
                continue
            out_port = ivc.out_port
            if out_port != LOCAL_PORT and outputs[out_port][ivc.out_vc].credits <= 0:  # type: ignore[index]
                if self._probes.active:
                    self._probes.credit_stall(self.node, ivc, cycle)
                continue
            eligible_by_port.setdefault(ivc.port, []).append(ivc)
        requests: dict[int, list[InputVC]] = {}
        for in_port, eligible in eligible_by_port.items():
            pick = self._sa_input_arbiters[in_port].pick(eligible)
            if pick is not None:
                requests.setdefault(pick.out_port, []).append(pick)  # type: ignore[arg-type]
        for out_port, reqs in requests.items():
            winner = self._sa_output_arbiters[out_port].pick(reqs)
            if winner is not None:
                self._send(winner, cycle)

    # -- VA helpers -------------------------------------------------------------

    def _try_adaptive(
        self, ivc: InputVC, packet: Packet, adaptive_ports: tuple[int, ...], cycle: int
    ) -> bool:
        cfg = self.network.config
        if cfg.num_adaptive_vcs == 0:
            return False
        best: tuple[int, int, OutputVC] | None = None
        best_score = -1
        for port in adaptive_ports:
            outs = self.outputs[port]
            if outs is None:
                continue
            # Congestion-aware port selection: prefer the output whose
            # buffers currently hold the most free credits.  The score
            # depends only on the port, so ports that cannot beat the
            # current best need no VC admission checks at all.
            score = sum(o.credits for o in outs)
            if score <= best_score:
                continue
            for vc in range(cfg.num_escape_vcs, cfg.num_vcs):
                ovc = outs[vc]
                if not self._ovc_admits(ovc, packet):
                    continue
                best, best_score = (port, vc, ovc), score
                break  # one free VC per port is enough to consider the port
        if best is None:
            return False
        port, vc, _ = best
        self._grant(ivc, packet, port, vc, False, False, cycle)
        return True

    def _try_escape(
        self, ivc: InputVC, packet: Packet, escape_port: int, cycle: int, in_ring: bool
    ) -> bool:
        """``in_ring`` is the caller's ``is_in_ring_move`` result (pure in
        its arguments, so recomputing it here would be redundant)."""
        fc = self.network.flow_control
        outs = self.outputs[escape_port]
        if outs is None:
            raise RuntimeError(
                f"escape route of packet {packet.pid} leaves node {self.node} "
                f"through unconnected port {escape_port}"
            )
        for vc in fc.escape_vc_choices(packet, self.node, escape_port, in_ring):
            ovc = outs[vc]
            if not self._ovc_admits(ovc, packet):
                continue
            if not fc.allow_escape(packet, self.node, escape_port, ovc, in_ring, cycle):
                continue
            self._grant(ivc, packet, escape_port, vc, True, in_ring, cycle)
            return True
        return False

    def _ovc_admits(self, ovc: OutputVC, packet: Packet) -> bool:
        """Downstream admission test per switching mode.

        Atomic wormhole needs an empty, unallocated VC (Equation 3); VCT
        needs room for the whole packet (Equation 1); non-atomic wormhole
        needs one free flit slot (Equation 2).  Non-atomic modes still
        serialize packets per output VC so flits never interleave.
        """
        if self._atomic:
            return ovc.allocated_to is None and ovc.credits == ovc.downstream.capacity
        if ovc.allocated_to is not None:
            return False
        need = packet.length if self._switching is Switching.VCT else 1
        return ovc.credits >= need

    def _grant(
        self,
        ivc: InputVC,
        packet: Packet,
        out_port: int,
        out_vc: int,
        is_escape_hop: bool,
        in_ring: bool,
        cycle: int,
    ) -> None:
        fc = self.network.flow_control
        if out_port == LOCAL_PORT:
            if packet.current_ctx is not None:
                fc.on_leave_ring(packet, self.node, cycle)
        else:
            outs = self.outputs[out_port]
            assert outs is not None
            ovc = outs[out_vc]
            target = ovc.downstream
            staying = (
                is_escape_hop
                and in_ring
                and packet.current_ctx is not None
                and target.ring_id == packet.current_ctx.ring_id
            )
            if packet.current_ctx is not None and not staying:
                fc.on_leave_ring(packet, self.node, cycle)
            ovc.allocated_to = packet
            if self._atomic:
                target.owner = packet
            if is_escape_hop and target.ring_id is not None:
                fc.on_acquire(packet, target, in_ring, self.node, cycle)
        fc.on_grant(packet, self.node, cycle)
        if ivc.va_first_request is not None:
            wait = cycle - ivc.va_first_request
            is_injection_point = ivc.port == LOCAL_PORT or (
                out_port != LOCAL_PORT and out_port != ivc.port
            )
            if wait > 0 and is_injection_point:
                packet.injection_delay += wait
        ivc.out_port = out_port
        ivc.out_vc = out_vc
        ivc.stage_ready = cycle + 1
        ivc.state = VCState.ACTIVE
        self.network.act_va_grants += 1
        if self._probes.active:
            wait = (
                cycle - ivc.va_first_request
                if ivc.va_first_request is not None
                else 0
            )
            self._probes.va_grant(
                self.node, ivc, packet, out_port, out_vc, is_escape_hop, wait, cycle
            )

    # -- SA helpers -------------------------------------------------------------

    def _send(self, ivc: InputVC, cycle: int) -> None:
        net = self.network
        flit = ivc.pop()
        if ivc.port == LOCAL_PORT and flit.is_head:
            flit.packet.injected_cycle = cycle
            net.flits_in_network += flit.packet.length
            if self._probes.active:
                self._probes.packet_injected(self.node, flit.packet, cycle)
        net.act_buffer_reads += 1
        net.act_xbar_traversals += 1
        if ivc.out_port == LOCAL_PORT:
            net.schedule_ejection(self.node, flit, cycle + self._st_link_delay)
        else:
            outs = self.outputs[ivc.out_port]  # type: ignore[index]
            assert outs is not None
            ovc = outs[ivc.out_vc]  # type: ignore[index]
            ovc.take_credit()
            net.schedule_arrival(ovc.downstream, flit, cycle + self._st_link_delay)
            net.act_link_traversals += 1
        if self._probes.active:
            self._probes.flit_sent(self.node, ivc, flit, cycle)
        atomic = self._atomic
        if ivc.feeder is not None:
            net.schedule_credit(
                ivc.feeder, flit.is_tail and atomic, cycle + self._credit_delay
            )
        net.flits_moved_this_cycle += 1
        if not atomic and ivc.port != LOCAL_PORT:
            net.flow_control.on_slot_freed(ivc, flit)
        if flit.is_tail:
            if not atomic and ivc.out_port != LOCAL_PORT:
                # Non-atomic: the downstream VC accepts the next packet as
                # soon as this tail has been put on the wire.
                outs = self.outputs[ivc.out_port]  # type: ignore[index]
                assert outs is not None
                outs[ivc.out_vc].allocated_to = None  # type: ignore[index]
            if ivc.port == LOCAL_PORT:
                # The staged packet has fully left its NIC slot.
                net.backlog_packets -= 1
                ivc.release()
            elif atomic:
                net.flow_control.on_vacate(ivc)
                ivc.release()
            else:
                self._advance_front(ivc, cycle)

    def _advance_front(self, ivc: InputVC, cycle: int) -> None:
        """Non-atomic modes: hand the buffer to the next buffered packet."""
        if not ivc.flits:
            ivc.release()
            return
        front = ivc.flits[0]
        if not front.is_head:
            raise RuntimeError(
                f"packet boundary corrupted at {ivc.label()}: "
                f"{front!r} follows a tail"
            )
        ivc.owner = front.packet
        ivc.stage_ready = cycle + self.network.config.routing_delay
        ivc.state = VCState.ROUTING
        ivc.out_port = None
        ivc.out_vc = None
        ivc.va_first_request = None
