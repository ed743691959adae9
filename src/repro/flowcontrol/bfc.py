"""Localized Bubble Flow Control (VCT switching).

The original BFC theorem [Puente et al., "The adaptive bubble router"]
keeps a torus ring deadlock-free if one packet-sized bubble survives every
injection.  Lacking global information, early implementations (including
IBM Blue Gene/L) used the *localized* rule the paper describes in
Section 2.2: an injecting packet checks for **two** packet-sized bubbles
in the local receiving buffer — one it will occupy, one left as the ring's
bubble.  In-transit packets only need room for themselves (Equation 1).

Requires VCT switching: buffers hold whole packets and allocation is
non-atomic.
"""

from __future__ import annotations

from ..network.buffers import OutputVC
from ..network.flit import Packet
from ..network.switching import Switching
from .base import FlowControl

__all__ = ["LocalizedBubbleFlowControl"]


class LocalizedBubbleFlowControl(FlowControl):
    """BFC with the localized two-bubble injection condition."""

    name = "bfc-local"
    required_escape_vcs = 1

    def validate(self) -> None:
        super().validate()
        assert self.network is not None
        cfg = self.network.config
        if cfg.switching is not Switching.VCT:
            raise ValueError("bubble flow control requires VCT switching")
        if cfg.buffer_depth < 2 * cfg.max_packet_length:
            raise ValueError(
                "localized BFC needs room for two max-size packets per "
                f"buffer: depth {cfg.buffer_depth} < "
                f"2 x {cfg.max_packet_length}"
            )

    def certify_ring_exempt(self, ring_id: str) -> str | None:
        """Localized BFC: every injection provably leaves one whole-packet
        bubble in the ring (the two-bubble local condition), so the ring
        always internally drains — the original BFC theorem."""
        return (
            f"BFC theorem: ring {ring_id} keeps >= 1 packet-sized bubble "
            "(localized two-bubble injection condition)"
        )

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
        if ovc.downstream.ring_id is None or in_ring:
            # Equation (1) (room for the whole packet) is enforced by the
            # router's VCT admission test.
            return True
        assert self.network is not None
        bubble = self.network.config.max_packet_length
        ok = ovc.credits >= packet.length + bubble
        if not ok and self.probes.active:
            self.probes.fc_event("bfc_injection_deny", ovc.downstream.ring_id)
        return ok
