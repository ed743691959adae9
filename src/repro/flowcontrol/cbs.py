"""Critical Bubble Scheme (CBS) for VCT switching.

CBS [Chen, Wang & Pinkston, IPDPS'11] conveys BFC's global bubble
requirement with purely local state: one packet-sized bubble per ring is
marked *critical*.  Injecting packets may not consume it — they need a
non-critical bubble — while in-transit packets may pass through it,
displacing the critical mark backward to the buffer they vacate.  The
paper's Figure 3 walk-through and its Section 6 case (c) extension (a
flit-sized critical bubble for non-atomic wormhole) are both supported
via the ``bubble_flits`` parameter.
"""

from __future__ import annotations

from ..network.buffers import InputVC, OutputVC
from ..network.flit import Packet
from ..network.switching import Switching
from ..registry import FLOW_CONTROLS
from .base import FlowControl

__all__ = ["CriticalBubbleScheme"]


@FLOW_CONTROLS.register("cbs")
class CriticalBubbleScheme(FlowControl):
    """One critical bubble per ring, displaced backward, never injected into."""

    name = "cbs"
    required_escape_vcs = 1

    def __init__(self, *, bubble_flits: int | None = None):
        """``bubble_flits`` overrides the critical-bubble size.

        Defaults to the longest packet (classic CBS).  Section 6 case (c)
        uses a single flit for non-atomic wormhole switching.
        """
        super().__init__()
        self.bubble_flits = bubble_flits
        self.stats = {"critical_transfers": 0, "displacements": 0}

    # -- setup -----------------------------------------------------------------

    def validate(self) -> None:
        super().validate()
        assert self.network is not None
        cfg = self.network.config
        if cfg.switching is Switching.WORMHOLE_ATOMIC:
            raise ValueError(
                "CBS requires VCT or non-atomic wormhole switching; "
                "use WBFC for atomic wormhole"
            )
        if self.bubble_flits is None:
            self.bubble_flits = (
                cfg.max_packet_length if cfg.switching is Switching.VCT else 1
            )
        if cfg.buffer_depth < self.bubble_flits:
            raise ValueError(
                f"buffers ({cfg.buffer_depth} flits) cannot hold the "
                f"critical bubble ({self.bubble_flits} flits)"
            )
        if cfg.buffer_depth < cfg.max_packet_length:
            # allow_escape admits an injection only into whole-packet room
            # (DESIGN.md, "CBS admits whole packets"), so a shallower
            # buffer would never inject a max-length packet.
            raise ValueError(
                f"CBS injects whole packets: buffer_depth {cfg.buffer_depth} "
                f"< max_packet_length {cfg.max_packet_length}"
            )

    def initialize_state(self) -> None:
        for buffers in self.ring_buffers.values():
            buffers[0].critical = True

    # -- checkpoint/restore ------------------------------------------------------

    def snapshot_state(self) -> dict:
        # Per-buffer critical flags travel with the InputVC state.
        return {"stats": dict(self.stats)}

    def restore_state(self, state: dict) -> None:
        self.stats.clear()
        self.stats.update(state["stats"])

    # -- static certification ----------------------------------------------------

    def certify_ring_exempt(self, ring_id: str) -> str | None:
        """CBS keeps one critical bubble per ring that injections never eat."""
        return (
            f"CBS: ring {ring_id} always retains its {self.bubble_flits}-flit "
            "critical bubble (injections must leave it; transit displaces it "
            "backward)"
        )

    # -- rules -----------------------------------------------------------------

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
        if ivc.ring_id is None:
            return True
        if in_ring:
            # In-transit packets may consume the critical bubble; the mark
            # is displaced backward at acquisition (see on_acquire).
            return True
        reserved = self.bubble_flits if ivc.critical else 0
        return ovc.credits - reserved >= packet.length

    def on_acquire(self, packet: Packet, ivc: InputVC, in_ring: bool, node: int, cycle: int) -> None:
        if not in_ring or ivc.ring_id is None or not ivc.critical:
            return
        assert self.network is not None and self.bubble_flits is not None
        # Will the packet's arrival eat into the critical bubble?  If room
        # remains for it besides the packet, the mark can stay.
        if ivc.free_slots - packet.length >= self.bubble_flits:
            return
        # Displace the critical mark to the upstream ring buffer — the one
        # the packet vacates — exactly Figure 3's "P3 occupying the critical
        # bubble marks the newly freed buffer as the critical bubble".
        ring_id = ivc.ring_id
        pos = self.ring_position[(ring_id, ivc.node)]
        upstream = self.ring_buffers[ring_id][(pos - 1) % len(self.ring_buffers[ring_id])]
        ivc.critical = False
        upstream.critical = True
        self.stats["critical_transfers"] += 1
        if self.probes.active:
            self.probes.fc_event("cbs_critical_transfer", ring_id)

    def pre_cycle(self, cycle: int) -> None:
        """Proactively displace idle critical bubbles backward."""
        assert self.bubble_flits is not None
        for buffers in self.ring_buffers.values():
            k = len(buffers)
            for j in range(k):
                down = buffers[j]
                if not down.critical:
                    continue
                up = buffers[(j - 1) % k]
                if not up.critical and up.free_slots >= self.bubble_flits:
                    down.critical = False
                    up.critical = True
                    self.stats["displacements"] += 1
                    if self.probes.active:
                        self.probes.fc_event("cbs_displacement", down.ring_id)
                break  # at most one move per ring per cycle
