"""Flit-level WBFC for non-atomic wormhole switching (Section 6 case (d)).

When multiple packets may share a VC buffer, the worm-bubble is re-defined
as a *flit-sized* free slot and ``Mp = L(p)`` (every flit needs its own
slot-bubble).  Colors attach to free slots rather than whole buffers, so
each ring buffer carries counters of black and gray free slots; white
slots are implicit (``free - black - gray``).  All WBFC rules carry over:

- injection needs ``CI >= Mp - 1`` reservations plus one white slot, or
  the gray slot with ``CI > 0``;
- reservations are made by converting a white slot in the downstream
  receiving buffer to black;
- in-transit flits consume any free slot, displacing non-white colors
  backward as per-packet debt dropped on the slots the packet frees;
- leftover ``CH`` folds into the destination's ``CI``; the banked-CI
  reclaim and black re-entry extensions apply exactly as in the
  buffer-level scheme.

Slot colors are accounted against the upstream credit view (``credits -
black - gray``), so in-flight flits can never consume a slot an injector
was just admitted on.
"""

from __future__ import annotations

from ..flowcontrol.base import FlowControl
from ..network.buffers import InputVC, OutputVC
from ..network.flit import Flit, Packet
from ..network.switching import Switching
from ..registry import FLOW_CONTROLS
from .colors import WBColor
from .state import RingContext

__all__ = ["FlitLevelWBFC"]


@FLOW_CONTROLS.register("wbfc-flit")
class FlitLevelWBFC(FlowControl):
    """Worm-bubble flow control with flit-sized worm-bubbles."""

    name = "wbfc-flit"
    required_escape_vcs = 1

    def __init__(self, *, reclaim_banked_ci: bool = True, reclaim_patience: int = 2):
        super().__init__()
        self.reclaim_banked_ci = reclaim_banked_ci
        self.reclaim_patience = reclaim_patience
        #: Black free-slot count per ring buffer.
        self.black_slots: dict[InputVC, int] = {}
        #: Gray free-slot count (0 or 1) per ring buffer.
        self.gray_slots: dict[InputVC, int] = {}
        self.ci: dict[tuple[int, str], int] = {}
        self.marker_owner: dict[tuple[int, str], int] = {}
        self._owned_keys: dict[int, tuple[int, str]] = {}
        self._last_request: dict[tuple[int, str], int] = {}
        self._downstream_of: dict[tuple[int, str], InputVC] = {}
        self.ml: dict[str, int] = {}
        self.stats = {
            "marks": 0,
            "unmarks": 0,
            "gray_grabs": 0,
            "displacements": 0,
            "reclaims": 0,
        }

    # -- setup -------------------------------------------------------------

    def validate(self) -> None:
        super().validate()
        assert self.network is not None
        cfg = self.network.config
        if cfg.switching is not Switching.WORMHOLE_NONATOMIC:
            raise ValueError("flit-level WBFC requires non-atomic wormhole switching")
        ml = cfg.max_packet_length
        for ring in self.rings.values():
            slots = len(ring) * cfg.buffer_depth
            if slots < ml + 1:
                raise ValueError(
                    f"ring {ring.ring_id} has {slots} flit slots but "
                    f"flit-level WBFC needs at least ML+1 = {ml + 1}"
                )
            if (len(ring) - 1) * cfg.buffer_depth < ml - 1:
                raise ValueError(
                    f"ring {ring.ring_id} cannot hold ML-1 = {ml - 1} "
                    "initial black slots outside the gray buffer"
                )

    def initialize_state(self) -> None:
        assert self.network is not None
        cfg = self.network.config
        ml = cfg.max_packet_length
        for ring_id, buffers in self.ring_buffers.items():
            self.ml[ring_id] = ml
            for ivc in buffers:
                self.black_slots[ivc] = 0
                self.gray_slots[ivc] = 0
            self.gray_slots[buffers[0]] = 1
            remaining = ml - 1
            for ivc in buffers[1:]:
                take = min(remaining, cfg.buffer_depth)
                self.black_slots[ivc] = take
                remaining -= take
                if remaining == 0:
                    break
            for pos, hop in enumerate(self.rings[ring_id].hops):
                self.ci[(hop.node, ring_id)] = 0
                self._downstream_of[(hop.node, ring_id)] = buffers[(pos + 1) % len(buffers)]

    # -- static certification --------------------------------------------------

    def certify_ring_exempt(self, ring_id: str) -> str | None:
        """Theorem 1 at flit granularity: the ring always internally drains.

        Flit-level WBFC initializes every ring with one gray and ``ML - 1``
        black free *slots* (ML here is the longest packet, since worm-bubbles
        are single flits) and its injection rules never let the last marked
        slot be consumed, so one free flit entitlement survives any
        injection.
        """
        assert self.network is not None
        ml = self.ml[ring_id]
        slots = len(self.rings[ring_id]) * self.network.config.buffer_depth
        return (
            f"flit-level WBFC Theorem 1: ring {ring_id} ({slots} flit "
            f"slots) keeps a marked slot alive (ML={ml}: 1 gray + "
            f"{ml - 1} black)"
        )

    # -- slot arithmetic ------------------------------------------------------

    def whites(self, ovc: OutputVC) -> int:
        """Free white slots downstream, as seen through the credit mirror."""
        ivc = ovc.downstream
        return ovc.credits - self.black_slots[ivc] - self.gray_slots[ivc]

    # -- rules ------------------------------------------------------------------

    def escape_vc_choices(
        self, packet: Packet, node: int, out_port: int, in_ring: bool
    ) -> tuple[int, ...]:
        return (0,)

    def allow_escape(
        self,
        packet: Packet,
        node: int,
        out_port: int,
        ovc: OutputVC,
        in_ring: bool,
        cycle: int,
    ) -> bool:
        ivc = ovc.downstream
        ring_id = ivc.ring_id
        if ring_id is None or in_ring:
            return True
        key = (node, ring_id)
        self._last_request[key] = cycle
        mp = packet.length
        whites = self.whites(ovc)
        if mp == 1:
            # Equation (5) over slots: a white, or the gray while ML > 1.
            return whites >= 1 or (self.gray_slots[ivc] >= 1 and self.ml[ring_id] > 1)
        owner = self.marker_owner.get(key)
        if owner is not None and owner != packet.pid:
            return False
        ci = self.ci[key]
        if whites >= 1:
            # Equation (6), first clause; otherwise reserve a white slot.
            if ci >= mp - 1:
                return True
            self.black_slots[ivc] += 1
            self.ci[key] = ci + 1
            self.marker_owner[key] = packet.pid
            self._owned_keys[packet.pid] = key
            self.stats["marks"] += 1
            return False
        # Equation (6), second clause: the gray slot with CI > 0.
        return self.gray_slots[ivc] >= 1 and ci > 0

    # -- event notifications --------------------------------------------------------

    def on_acquire(self, packet: Packet, ivc: InputVC, in_ring: bool, node: int, cycle: int) -> None:
        if ivc.ring_id is None or in_ring:
            return
        key = (node, ivc.ring_id)
        ctx = RingContext(ring_id=ivc.ring_id)
        ctx.ch = self.ci[key]
        self.ci[key] = 0
        packet.current_ctx = ctx
        # Slot accounting is per (packet, ring): the tail may still be
        # freeing slots in the previous ring while the head rides this one.
        key_ctx = (packet.pid, ivc.ring_id)
        old = self._packet_ctx.get(key_ctx)
        if old is not None and not old.is_dead:
            raise RuntimeError(
                f"packet {packet.pid} re-entered ring {ivc.ring_id} while "
                "its previous context is still draining"
            )
        self._packet_ctx[key_ctx] = ctx

    def on_leave_ring(self, packet: Packet, node: int, cycle: int) -> None:
        ctx: RingContext | None = packet.current_ctx
        if ctx is None:
            return
        key = (node, ctx.ring_id)
        if ctx.ch:
            self.ci[key] = self.ci.get(key, 0) + ctx.ch
            ctx.ch = 0
        ctx.closed = True
        packet.current_ctx = None

    def on_grant(self, packet: Packet, node: int, cycle: int) -> None:
        key = self._owned_keys.pop(packet.pid, None)
        if key is not None and self.marker_owner.get(key) == packet.pid:
            del self.marker_owner[key]

    _packet_ctx: dict[tuple[int, str], RingContext]

    def attach(self, network) -> None:  # type: ignore[override]
        self._packet_ctx = {}
        super().attach(network)

    def on_slot_filled(self, ivc: InputVC, flit: Flit) -> None:
        if ivc.ring_id is None or ivc not in self.black_slots:
            return
        ctx = self._packet_ctx.get((flit.packet.pid, ivc.ring_id))
        if ctx is None:
            return
        # free_slots is post-push; >= colored slots means a white was free.
        whites_left = ivc.free_slots - self.black_slots[ivc] - self.gray_slots[ivc]
        if whites_left >= 0:
            pass  # consumed a white slot; nothing to record
        elif self.black_slots[ivc] > 0:
            self.black_slots[ivc] -= 1
            if ctx.ch > 0:
                ctx.ch -= 1
                self.stats["unmarks"] += 1
            else:
                ctx.color_debt.append(WBColor.BLACK)
        elif self.gray_slots[ivc] > 0:
            self.gray_slots[ivc] -= 1
            ctx.holds_gray = True
            self.stats["gray_grabs"] += 1
        ctx.occupied += 1

    def on_slot_freed(self, ivc: InputVC, flit: Flit) -> None:
        if ivc.ring_id is None or ivc not in self.black_slots:
            return
        ctx = self._packet_ctx.get((flit.packet.pid, ivc.ring_id))
        if ctx is None:
            return
        ctx.occupied -= 1
        if ctx.color_debt:
            color = ctx.color_debt.pop()
            if color is WBColor.BLACK:
                self.black_slots[ivc] += 1
            else:
                self.gray_slots[ivc] += 1
        if ctx.is_dead:
            # Flush whatever the worm still carries onto its final buffer;
            # slot-color counters stack, so nothing can leak.
            for color in ctx.color_debt:
                if color is WBColor.BLACK:
                    self.black_slots[ivc] += 1
                else:
                    self.gray_slots[ivc] += 1
            ctx.color_debt.clear()
            if ctx.holds_gray:
                self.gray_slots[ivc] += 1
                ctx.holds_gray = False
            self._packet_ctx.pop((flit.packet.pid, ivc.ring_id), None)

    # -- checkpoint/restore ------------------------------------------------------------

    def snapshot_state(self) -> dict:
        # Slot-color counters are keyed by InputVC; encode them as per-ring
        # lists aligned with ring_buffers order so a structural twin can
        # re-key them onto its own buffer objects.
        return {
            "black_slots": {
                ring_id: [self.black_slots[ivc] for ivc in buffers]
                for ring_id, buffers in self.ring_buffers.items()
            },
            "gray_slots": {
                ring_id: [self.gray_slots[ivc] for ivc in buffers]
                for ring_id, buffers in self.ring_buffers.items()
            },
            "ci": dict(self.ci),
            "last_request": dict(self._last_request),
            "marker_owner": dict(self.marker_owner),
            "owned_keys": dict(self._owned_keys),
            "packet_ctx": dict(self._packet_ctx),
            "stats": dict(self.stats),
        }

    def restore_state(self, state: dict) -> None:
        for ring_id, buffers in self.ring_buffers.items():
            for ivc, black in zip(buffers, state["black_slots"][ring_id]):
                self.black_slots[ivc] = black
            for ivc, gray in zip(buffers, state["gray_slots"][ring_id]):
                self.gray_slots[ivc] = gray
        self.ci = dict(state["ci"])
        self._last_request = dict(state["last_request"])
        self.marker_owner = dict(state["marker_owner"])
        self._owned_keys = dict(state["owned_keys"])
        self._packet_ctx = dict(state["packet_ctx"])
        self.stats.clear()
        self.stats.update(state["stats"])

    # -- proactive maintenance ---------------------------------------------------------

    def pre_cycle(self, cycle: int) -> None:
        if self.reclaim_banked_ci:
            for key, ci in self.ci.items():
                if ci <= 0 or key in self.marker_owner:
                    continue
                if cycle - self._last_request.get(key, -(10**9)) <= self.reclaim_patience:
                    continue
                ivc = self._downstream_of[key]
                if self.black_slots[ivc] > 0:
                    self.black_slots[ivc] -= 1
                    self.ci[key] = ci - 1
                    self.stats["reclaims"] += 1
        for buffers in self.ring_buffers.values():
            k = len(buffers)
            for j in range(k):
                down, up = buffers[j], buffers[(j - 1) % k]
                if self.black_slots[down] == 0:
                    continue
                up_whites = (
                    up.free_slots - self.black_slots[up] - self.gray_slots[up]
                )
                if up_whites >= 1:
                    self.black_slots[down] -= 1
                    self.black_slots[up] += 1
                    self.stats["displacements"] += 1
                    break  # one transfer per ring per cycle (wbt handshake)
                if self.gray_slots[up] >= 1 and self.gray_slots[down] == 0:
                    # Transfer the gray slot forward past the black.
                    self.gray_slots[up] -= 1
                    self.black_slots[up] += 1
                    self.black_slots[down] -= 1
                    self.gray_slots[down] += 1
                    self.stats["displacements"] += 1
                    break
