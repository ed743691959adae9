"""Flow-control interface.

A flow-control scheme governs how packets may acquire *escape* virtual
channels: which escape VC class a packet must use at a given hop, and
whether an injection (from the NIC, from an adaptive VC, or a dimension
change) may proceed.  The router consults it during VC allocation and
notifies it of buffer acquisition, ring departure, and buffer vacation so
that schemes like WBFC can maintain their distributed token state.

The base class builds a registry of the topology's unidirectional rings:
which ring each output port feeds, each node's position along its rings,
and the ordered list of escape buffers forming each ring.
"""

from __future__ import annotations

from abc import ABC
from typing import TYPE_CHECKING

from ..network.buffers import InputVC, OutputVC
from ..network.flit import Packet
from ..sim.config import NEVER
from ..telemetry.probes import ProbeBus
from ..topology.base import Ring

if TYPE_CHECKING:  # pragma: no cover
    from ..network.network import Network

__all__ = ["FlowControl"]


class FlowControl(ABC):
    """Base class for deadlock-avoidance flow-control schemes."""

    #: Human-readable scheme name (used in reports and design labels).
    name: str = "base"
    #: Escape VCs the scheme needs (1 for WBFC, 2 for Dateline).
    required_escape_vcs: int = 1

    def __init__(self) -> None:
        self.network: Network | None = None
        # Standalone-safe inactive bus; attach() rebinds to the network's.
        self.probes = ProbeBus()
        #: ring_id -> Ring
        self.rings: dict[str, Ring] = {}
        #: (node, out_port) -> ring_id fed by that output
        self.ring_of_output: dict[tuple[int, int], str] = {}
        #: (ring_id, node) -> position of node in ring traversal order
        self.ring_position: dict[tuple[str, int], int] = {}
        #: (ring_id, node) -> the node's output port continuing the ring
        self.ring_out_port: dict[tuple[str, int], int] = {}
        #: ring_id -> escape buffers (VC 0) in traversal order
        self.ring_buffers: dict[str, list[InputVC]] = {}
        #: ``[node][port] -> ring_id | None``; flat-list mirror of
        #: ``ring_of_output`` for the per-VA-request in-ring test.
        self._ring_out_table: list[list[str | None]] = []

    # -- wiring ---------------------------------------------------------

    def attach(self, network: Network) -> None:
        """Bind to a built network: index rings and label escape buffers."""
        self.network = network
        self.probes = network.probes
        for ring in network.topology.rings():
            self.rings[ring.ring_id] = ring
            buffers = []
            for pos, hop in enumerate(ring.hops):
                self.ring_of_output[(hop.node, hop.out_port)] = ring.ring_id
                self.ring_position[(ring.ring_id, hop.node)] = pos
                self.ring_out_port[(ring.ring_id, hop.node)] = hop.out_port
                for vc in range(network.config.num_escape_vcs):
                    escape_ivc = network.input_vc(hop.node, hop.in_port, vc)
                    escape_ivc.ring_id = ring.ring_id
                # Token bookkeeping (WBFC colors) lives on escape VC 0.
                buffers.append(network.input_vc(hop.node, hop.in_port, 0))
            self.ring_buffers[ring.ring_id] = buffers
        num_ports = network.topology.num_ports
        self._ring_out_table = [
            [None] * num_ports for _ in range(network.topology.num_nodes)
        ]
        for (node, out_port), ring_id in self.ring_of_output.items():
            self._ring_out_table[node][out_port] = ring_id
        self.validate()
        self.initialize_state()

    def validate(self) -> None:
        """Check configuration constraints; raise ``ValueError`` if violated."""
        assert self.network is not None
        cfg = self.network.config
        if cfg.num_escape_vcs != self.required_escape_vcs:
            raise ValueError(
                f"{self.name} needs exactly {self.required_escape_vcs} escape "
                f"VC(s), got {cfg.num_escape_vcs}"
            )

    def initialize_state(self) -> None:
        """Set up per-ring token state (colors, counters); default none."""

    # -- queries from the router -----------------------------------------

    def escape_vc_choices(
        self, packet: Packet, node: int, out_port: int, in_ring: bool
    ) -> tuple[int, ...]:
        """Escape VC indices ``packet`` may request at ``(node, out_port)``."""
        assert self.network is not None
        return tuple(range(self.network.config.num_escape_vcs))

    def allow_escape(
        self,
        packet: Packet,
        node: int,
        out_port: int,
        ovc: OutputVC,
        in_ring: bool,
        cycle: int,
    ) -> bool:
        """May ``packet`` acquire the (free) downstream escape VC now?

        Called only when the output VC passes the atomic-allocation check.
        Implementations may have side effects (WBFC marks worm-bubbles black
        here); returning True means the router will grant immediately.
        """
        return True

    # -- event notifications ----------------------------------------------

    def on_acquire(self, packet: Packet, ivc: InputVC, in_ring: bool, node: int, cycle: int) -> None:
        """``packet`` was granted downstream escape buffer ``ivc``.

        ``node`` is the router where the grant happened (upstream of
        ``ivc``); for injections this is where the scheme's injection
        counter lives.
        """

    def on_leave_ring(self, packet: Packet, node: int, cycle: int) -> None:
        """``packet``'s head leaves its current ring at ``node``."""

    def on_vacate(self, ivc: InputVC) -> None:
        """``ivc`` was emptied by the owning packet's departing tail."""

    def on_grant(self, packet: Packet, node: int, cycle: int) -> None:
        """``packet`` received some VA grant at ``node`` (marker release)."""

    def pre_cycle(self, cycle: int) -> None:
        """Per-cycle token maintenance (proactive worm-bubble displacement)."""

    def next_wake(self, cycle: int) -> int:
        """Event-horizon wake contract (see API.md): the earliest cycle
        ``>= cycle`` at which this scheme needs :meth:`pre_cycle` to run on
        a fully quiescent network.  Returning ``cycle`` forbids skipping.

        The default inspects whether the concrete class overrides
        ``pre_cycle``: schemes with the no-op base never need waking;
        schemes with per-cycle maintenance that have not declared their own
        wake schedule conservatively demand every cycle (correct, no skip).
        """
        if type(self).pre_cycle is FlowControl.pre_cycle:
            return NEVER
        return cycle

    def skip_cycles(self, span: int) -> None:
        """``span`` fully quiescent cycles were skipped without ticking.

        Called only for spans every component agreed to sleep through
        (``next_wake`` returned a later cycle), so the default is a no-op;
        schemes with per-cycle bookkeeping that is well-defined on an idle
        network (WBFC's deferred token rotation) account for it here in
        O(state), not O(span)."""

    def on_slot_filled(self, ivc: InputVC, flit) -> None:
        """Non-atomic modes: a flit was written into ``ivc``."""

    def on_slot_freed(self, ivc: InputVC, flit) -> None:
        """Non-atomic modes: a flit left ``ivc``, freeing one slot."""

    def on_bubble_change(self, ivc: InputVC, occupied_delta: int) -> None:
        """Ring escape buffer ``ivc`` became a worm-bubble or stopped being one.

        ``occupied_delta`` is +1 when the buffer gained its first flit or an
        owner (no longer a bubble), -1 when it returned to empty-and-unowned.
        Fired for any buffer with a ``ring_id``; schemes that keep per-ring
        occupancy counts (WBFC's work-proportional displacement) override it.
        """

    # -- checkpoint/restore ----------------------------------------------------

    def snapshot_state(self) -> dict:
        """Mutable token/ledger state as plain data (repro.sim.checkpoint).

        The ring registries built by ``attach`` are structural and
        excluded — a restore target rebuilds them identically at
        construction.  Stateless schemes inherit this empty default.
        """
        return {}

    def restore_state(self, state: dict) -> None:
        """Adopt a snapshot taken by :meth:`snapshot_state`.

        Called after every VC buffer has been restored, so overrides may
        recount buffer-derived state (e.g. WBFC lane occupancy)."""

    # -- static certification ------------------------------------------------

    def certify_ring_exempt(self, ring_id: str) -> str | None:
        """Justification for dropping ``ring_id``'s internal CDG cycle.

        The deadlock-freedom certifier (:mod:`repro.analysis.certify`)
        builds the escape-channel dependency graph, in which every
        unidirectional ring is by construction a cycle.  A scheme that
        *guarantees* the ring can always internally drain — bubble-style
        schemes keeping at least one free buffer entitlement alive per
        ring — returns a one-line justification here and the certifier
        contracts the ring to a single vertex (its internal cycle is
        discharged; dependences entering and leaving the ring remain).

        Return ``None`` when no such guarantee exists: the ring's cycle
        stays in the CDG and, unless broken by VC classes (Dateline), the
        configuration is rejected.  Implementations must re-check their
        structural preconditions (ring length, buffer depth) rather than
        assume ``validate()`` ran.
        """
        return None

    def certify_escape_classes(
        self,
        packet: Packet,
        node: int,
        out_port: int,
        in_ring: bool,
        prev_class: int | None,
    ) -> tuple[int, ...]:
        """Escape VC classes a head may wait on at this hop — statically.

        Used by the certifier's route walk instead of
        :meth:`escape_vc_choices`, which schemes may implement with side
        effects (WBFC marks worm-bubbles, Dateline toggles its balance
        bit).  Implementations must be pure and may condition only on the
        walk state: ``prev_class`` is the class held on the previous hop
        (``None`` at injection).  The default delegates to
        ``escape_vc_choices``, which is side-effect-free for every scheme
        except Dateline (which overrides this hook).
        """
        return self.escape_vc_choices(packet, node, out_port, in_ring)

    # -- helpers ------------------------------------------------------------

    def is_in_ring_move(self, src_ivc: InputVC | None, node: int, out_port: int) -> bool:
        """True when the head continues along the ring it already rides.

        Anything else — NIC injection, adaptive-VC source, or a dimension
        change — counts as an *injection* in the bubble-flow-control sense.
        """
        if src_ivc is None or not src_ivc.is_escape or src_ivc.ring_id is None:
            return False
        if self._ring_out_table:
            # Attached: list indexing beats a tuple-keyed dict lookup on
            # this per-VA-request path.
            return src_ivc.ring_id == self._ring_out_table[node][out_port]
        return src_ivc.ring_id == self.ring_of_output.get((node, out_port))
