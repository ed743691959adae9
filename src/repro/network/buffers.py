"""Virtual-channel buffers and upstream credit mirrors.

:class:`InputVC` is the real buffer at a router input port, including the
router-pipeline state of the packet at its head and the worm-bubble color
field used by WBFC.  :class:`OutputVC` is the *upstream mirror* of one
downstream InputVC: a credit count plus an allocation flag, exactly the
state a credit-based hardware output unit keeps.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import TYPE_CHECKING

from ..core.colors import CODE_TO_COLOR, WBColor
from .flit import Flit, Packet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    pass

__all__ = ["VCState", "InputVC", "OutputVC"]


class VCState(enum.Enum):
    """Pipeline state of the packet occupying an input VC."""

    IDLE = "idle"
    ROUTING = "routing"  # head flit present, route computation in flight
    WAITING_VA = "waiting_va"  # route known, waiting for an output VC
    ACTIVE = "active"  # output VC allocated, flits flow through SA


class InputVC:
    """One virtual-channel buffer at a router input port."""

    __slots__ = (
        "node",
        "port",
        "vc",
        "capacity",
        "flits",
        "_owner",
        "_state",
        "scheduler",
        "order",
        "color_lane",
        "ring_pos",
        "ring_id",
        "is_escape",
        "route_candidates",
        "out_port",
        "out_vc",
        "stage_ready",
        "va_first_request",
        "occupant_ctx",
        "critical",
        "feeder",
    )

    def __init__(
        self,
        node: int,
        port: int,
        vc: int,
        capacity: int,
        *,
        is_escape: bool,
        ring_id: str | None = None,
    ):
        self.node = node
        self.port = port
        self.vc = vc
        self.capacity = capacity
        self.flits: deque[Flit] = deque()
        #: Packet currently allocated this buffer (atomic allocation owner).
        self._owner: Packet | None = None
        #: Active-set scheduler (the owning Router) notified of every state
        #: transition; None for standalone buffers built outside a Network.
        self.scheduler = None
        #: Deterministic scan position (port-major, then VC) within the
        #: owning router; active sets are iterated in this order so the
        #: work-proportional kernel matches the full scan bit-for-bit.
        self.order = 0
        self._state = VCState.IDLE
        #: Token lane of this buffer's ring (WBFC), the one home of its
        #: worm-bubble color: ``key`` holds 2 bits per ring position,
        #: ``pending`` counts idle rotations ``materialize()`` still owes.
        #: None for buffers that carry no token.
        self.color_lane = None
        #: Position of this buffer along its ring's buffer list (WBFC);
        #: the bit index of this buffer in the lane's packed vectors.
        self.ring_pos = 0
        #: Unidirectional ring this buffer belongs to (escape VCs on rings).
        self.ring_id = ring_id
        self.is_escape = is_escape
        #: Productive (out_port, is_escape_hop) options from route computation.
        self.route_candidates: tuple[tuple[int, bool], ...] = ()
        self.out_port: int | None = None
        self.out_vc: int | None = None
        #: Cycle at which the current pipeline stage's work completes.
        self.stage_ready = 0
        #: Cycle the head packet first requested VA here (injection-delay metric).
        self.va_first_request: int | None = None
        #: Ring flow-control context of the packet occupying this buffer.
        self.occupant_ctx = None
        #: Critical-bubble flag (CBS, VCT switching).
        self.critical = False
        #: The upstream OutputVC mirroring this buffer (None for NIC queues).
        self.feeder = None

    # -- pipeline state -----------------------------------------------------

    @property
    def state(self) -> VCState:
        return self._state

    @state.setter
    def state(self, new: VCState) -> None:
        old = self._state
        self._state = new
        if new is not old and self.scheduler is not None:
            self.scheduler.on_vc_state_change(self, old, new)

    @property
    def color(self) -> WBColor:
        """Worm-bubble color (meaningful while the buffer is empty): a view
        of this buffer's two bits in its ring lane's packed key, read after
        settling any idle rotation the lane still owes.  A buffer on no
        lane carries no token and reads WHITE."""
        lane = self.color_lane
        if lane is None:
            return WBColor.WHITE
        if lane.pending:
            lane.materialize()
        return CODE_TO_COLOR[(lane.key >> (self.ring_pos * 2)) & 3]

    @color.setter
    def color(self, value: WBColor) -> None:
        lane = self.color_lane
        if lane is None:
            if value is not WBColor.WHITE:
                raise ValueError(
                    f"{self.label()} is on no token lane and cannot hold "
                    f"a {value.name} worm-bubble"
                )
            return
        if lane.pending:
            lane.materialize()
        shift = self.ring_pos * 2
        lane.key += (value.code - ((lane.key >> shift) & 3)) << shift
        # A color write may enable a displacement the lane's no-move
        # memo ruled out; tell the eager pass to re-examine the ring.
        lane.dirty = True

    @property
    def owner(self) -> Packet | None:
        return self._owner

    @owner.setter
    def owner(self, packet: Packet | None) -> None:
        old = self._owner
        self._owner = packet
        # A ring escape buffer is a worm-bubble iff it is empty AND unowned;
        # owning flow control keeps a per-ring occupancy count, so tell the
        # scheduler when an owner change flips the bubble status.
        if (
            (packet is None) is not (old is None)
            and not self.flits
            and self.ring_id is not None
            and self.scheduler is not None
        ):
            self.scheduler.on_vc_bubble_change(self, -1 if packet is None else 1)

    # -- occupancy ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.flits)

    @property
    def is_empty(self) -> bool:
        return not self.flits

    @property
    def is_worm_bubble(self) -> bool:
        """True when this buffer is an empty, unowned worm-bubble."""
        return not self.flits and self.owner is None

    @property
    def free_slots(self) -> int:
        return self.capacity - len(self.flits)

    def head_flit(self) -> Flit | None:
        return self.flits[0] if self.flits else None

    # -- mutation -----------------------------------------------------------

    def push(self, flit: Flit) -> None:
        if len(self.flits) >= self.capacity:
            raise OverflowError(
                f"buffer overflow at node {self.node} port {self.port} vc {self.vc}"
            )
        self.flits.append(flit)
        if self.scheduler is not None:
            self.scheduler.on_vc_occupancy_change(self, +1)

    def pop(self) -> Flit:
        if not self.flits:
            raise IndexError("pop from empty VC buffer")
        flit = self.flits.popleft()
        if self.scheduler is not None:
            self.scheduler.on_vc_occupancy_change(self, -1)
        return flit

    def release(self) -> None:
        """Return to IDLE after the owning packet's tail has departed."""
        if self.flits:
            raise RuntimeError("released a VC that still holds flits")
        self.owner = None
        self.state = VCState.IDLE
        self.route_candidates = ()
        self.out_port = None
        self.out_vc = None
        self.va_first_request = None
        self.occupant_ctx = None

    def label(self) -> str:
        return f"n{self.node}/p{self.port}/v{self.vc}"

    # -- checkpoint/restore ---------------------------------------------------

    def snapshot_state(self) -> dict:
        """Mutable per-run state as plain data (see repro.sim.checkpoint).

        Reads the ``color`` property so any deferred lane rotation is
        materialized before capture; flits, packets and ring contexts stay
        live references — the snapshot layer deep-copies the whole tree
        with one shared memo.
        """
        return {
            "flits": list(self.flits),
            "owner": self._owner,
            "state": self._state,
            "color": self.color,
            "route_candidates": self.route_candidates,
            "out_port": self.out_port,
            "out_vc": self.out_vc,
            "stage_ready": self.stage_ready,
            "va_first_request": self.va_first_request,
            "occupant_ctx": self.occupant_ctx,
            "critical": self.critical,
        }

    def restore_state(self, state: dict) -> None:
        """Write the captured slots back directly, bypassing the owner and
        state setters: scheduler stage sets, occupancy counters and WBFC
        lane occupancy are all recomputed wholesale after every buffer is
        in place, so firing incremental hooks here would double-count.
        The color goes through the lane (its only home)."""
        self.flits = deque(state["flits"])
        self._owner = state["owner"]
        self._state = state["state"]
        if self.color_lane is not None:
            # An idle rotation the restore target still owes belongs to
            # the state being overwritten; it must never replay onto the
            # restored colors.
            self.color_lane.pending = 0
        self.color = state["color"]
        self.route_candidates = tuple(state["route_candidates"])
        self.out_port = state["out_port"]
        self.out_vc = state["out_vc"]
        self.stage_ready = state["stage_ready"]
        self.va_first_request = state["va_first_request"]
        self.occupant_ctx = state["occupant_ctx"]
        self.critical = state["critical"]


class OutputVC:
    """Upstream mirror of one downstream input VC (credit-based control)."""

    __slots__ = ("downstream", "credits", "allocated_to")

    def __init__(self, downstream: InputVC):
        self.downstream = downstream
        self.credits = downstream.capacity
        #: Packet the downstream VC is currently allocated to, as known
        #: upstream (cleared when the tail's credit returns).
        self.allocated_to: Packet | None = None

    @property
    def is_free_for_allocation(self) -> bool:
        """Atomic allocation: downstream VC unowned and known empty."""
        return self.allocated_to is None and self.credits == self.downstream.capacity

    @property
    def has_credit(self) -> bool:
        return self.credits > 0

    def take_credit(self) -> None:
        if self.credits <= 0:
            raise RuntimeError("sent a flit without a credit")
        self.credits -= 1

    def return_credit(self, *, release: bool) -> None:
        self.credits += 1
        if self.credits > self.downstream.capacity:
            raise RuntimeError("credit overflow")
        if release:
            self.allocated_to = None
