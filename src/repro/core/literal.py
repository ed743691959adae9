"""WBFC exactly as the paper's text reads — kept as a negative control.

This variant implements Section 3 *literally*:

- Equation (4): an in-transit head may enter **any** empty buffer,
  regardless of worm-bubble color or how much of the worm has entered the
  ring; a consumed color is "transferred backwards" by dropping it on the
  next buffer the worm's tail vacates;
- proactive displacement moves black WBs backward only;
- no banked-CI reclaim, no CI drift, no black re-entry.

As analysed in :mod:`repro.core.wbfc`'s module notes, the backward
transfer is **not** guaranteed to land on an empty buffer when the
consuming worm is longer than one buffer and still streaming into the
ring, so marked bubbles can be destroyed faster than they are restored
and the ring deadlocks.  The integration suite demonstrates this wedge on
a standalone ring across seeds and loads; the production
:class:`~repro.core.wbfc.WormBubbleFlowControl` closes the gap with the
marked-WB passage rule and its liveness valves.
"""

from __future__ import annotations

from ..network.buffers import InputVC, OutputVC
from ..network.flit import Packet
from .colors import WBColor
from .wbfc import WormBubbleFlowControl

__all__ = ["PaperLiteralWBFC"]


class PaperLiteralWBFC(WormBubbleFlowControl):
    """Section 3 as written; deadlocks under sustained load."""

    name = "wbfc-literal"

    def __init__(self) -> None:
        super().__init__(reclaim_banked_ci=False, black_reentry=False)

    def allow_escape(
        self,
        packet: Packet,
        node: int,
        out_port: int,
        ovc: OutputVC,
        in_ring: bool,
        cycle: int,
    ) -> bool:
        if in_ring and ovc.downstream.ring_id is not None:
            return True  # Equation (4): emptiness is the only condition
        return super().allow_escape(packet, node, out_port, ovc, in_ring, cycle)

    def on_acquire(self, packet: Packet, ivc: InputVC, in_ring: bool, node: int, cycle: int) -> None:
        if in_ring and ivc.ring_id is not None:
            ctx = packet.current_ctx
            if ctx is None or ctx.ring_id != ivc.ring_id:
                raise RuntimeError("in-ring move without a matching context")
            if ivc.color is WBColor.BLACK:
                if ctx.ch > 0:
                    ctx.ch -= 1
                    self.stats["unmarks"] += 1
                else:
                    ctx.color_debt.append(WBColor.BLACK)
            elif ivc.color is WBColor.GRAY:
                ctx.color_debt.append(WBColor.GRAY)
            ctx.occupied += 1
            ivc.occupant_ctx = ctx
            ivc.color = WBColor.WHITE
            return
        super().on_acquire(packet, ivc, in_ring, node, cycle)

    def certify_ring_exempt(self, ring_id: str) -> str | None:
        # Section 3 read literally has no marked-WB passage rule, so a long
        # worm can destroy the last marked bubble: Theorem 1 does not hold
        # and the ring's cycle stays in the CDG.
        return None

    def pre_cycle(self, cycle: int) -> None:
        # Backward displacement only, as Section 3.6 describes.
        for buffers in self.ring_buffers.values():
            k = len(buffers)
            for i in range(k):
                j = (i + 1) % k
                down, up = buffers[j], buffers[i]
                if (
                    down.is_worm_bubble
                    and down.color is WBColor.BLACK
                    and up.is_worm_bubble
                    and up.color in (WBColor.WHITE, WBColor.GRAY)
                ):
                    down.color, up.color = up.color, WBColor.BLACK
                    self.stats["displacements"] += 1
