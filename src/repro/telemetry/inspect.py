"""Read-only structured views of live network state.

This module is the *pull* side of the telemetry seam: where the probe bus
streams events outward, these helpers let diagnostics and visualization
read a consistent structured snapshot — ring token layouts, worm-bubble
color censuses, blocked-head explanations — without every caller growing
its own ad-hoc reach into router/buffer internals.
:mod:`repro.sim.diagnostics` and :mod:`repro.sim.visualize` are thin
presentation layers over these views.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..core.colors import WBColor
from ..network.buffers import VCState
from ..topology.base import LOCAL_PORT

if TYPE_CHECKING:  # pragma: no cover
    from ..network.buffers import InputVC
    from ..network.network import Network

__all__ = [
    "buffer_glyph",
    "ring_ids",
    "ring_buffer_view",
    "ring_glyphs",
    "ring_color_census",
    "blocked_heads",
    "format_blocked_heads",
]

_GLYPHS = {WBColor.WHITE: "W", WBColor.GRAY: "G", WBColor.BLACK: "B"}


def buffer_glyph(ivc: "InputVC") -> str:
    """One-character buffer summary: ``o`` occupied, ``a`` allocated-but-
    empty, else the worm-bubble color letter (``W``/``G``/``B``)."""
    if ivc.flits:
        return "o"
    if ivc.owner is not None:
        return "a"
    return _GLYPHS[ivc.color]


def _ring_buffers(network: "Network", ring_id: str) -> list:
    buffers = getattr(network.flow_control, "ring_buffers", {}).get(ring_id)
    if buffers is None:
        raise KeyError(f"unknown ring {ring_id!r}")
    return buffers


def ring_ids(network: "Network") -> list[str]:
    """Ring identifiers of the attached flow control, sorted."""
    return sorted(getattr(network.flow_control, "ring_buffers", {}))


def ring_buffer_view(network: "Network", ring_id: str) -> list[dict]:
    """One record per ring buffer, in traversal order.

    Keys: ``label``, ``glyph``, ``color`` (name), ``occupants`` (pids in
    buffer order), ``owner`` (pid or None), and ``ci`` — the CI counter of
    the buffer's node on this ring, for schemes that keep one (else None).
    """
    fc = network.flow_control
    ci_map = getattr(fc, "ci", {})
    view = []
    for ivc in _ring_buffers(network, ring_id):
        view.append(
            {
                "label": ivc.label(),
                "node": ivc.node,
                "glyph": buffer_glyph(ivc),
                "color": ivc.color.name,
                "occupants": [f.packet.pid for f in ivc.flits],
                "owner": ivc.owner.pid if ivc.owner is not None else None,
                "ci": ci_map.get((ivc.node, ring_id)),
            }
        )
    return view


def ring_glyphs(network: "Network", ring_id: str) -> str:
    """The ring's buffers as one glyph string, in traversal order."""
    return "".join(buffer_glyph(b) for b in _ring_buffers(network, ring_id))


def ring_color_census(network: "Network", ring_id: str) -> dict[str, int]:
    """Token census of one ring: worm-bubbles by color, plus non-bubbles.

    Returns ``{"W": ..., "G": ..., "B": ..., "occupied": ..., "allocated":
    ...}`` where the color counts cover only true worm-bubbles (empty and
    unowned), ``occupied`` counts buffers holding flits and ``allocated``
    counts empty-but-owned gaps.  Reading colors flushes any deferred WBFC
    lane rotation — semantically transparent by design (and pinned by the
    telemetry bit-identity tests).
    """
    census = {"W": 0, "G": 0, "B": 0, "occupied": 0, "allocated": 0}
    for ivc in _ring_buffers(network, ring_id):
        if ivc.flits:
            census["occupied"] += 1
        elif ivc.owner is not None:
            census["allocated"] += 1
        else:
            census[_GLYPHS[ivc.color]] += 1
    return census


def blocked_heads(network: "Network") -> list[dict]:
    """One record per head flit stuck in WAITING_VA, with denial reasons."""
    fc = network.flow_control
    cfg = network.config
    out = []
    for router in network.routers:
        for port_list in router.inputs:
            for ivc in port_list:
                if ivc.state is not VCState.WAITING_VA or not ivc.flits:
                    continue
                packet = ivc.flits[0].packet
                ctx = packet.current_ctx
                adaptive_ports, escape_port = ivc.route_candidates
                reasons = []
                if escape_port == LOCAL_PORT:
                    reasons.append("ejecting (should not block)")
                else:
                    if cfg.num_adaptive_vcs:
                        free = [
                            port
                            for port in adaptive_ports
                            if router.outputs[port] is not None
                            and any(
                                router._ovc_admits(router.outputs[port][v], packet)
                                for v in range(cfg.num_escape_vcs, cfg.num_vcs)
                            )
                        ]
                        reasons.append(
                            f"adaptive free ports={free or 'none'}"
                        )
                    outs = router.outputs[escape_port]
                    in_ring = fc.is_in_ring_move(ivc, router.node, escape_port)
                    # The pure view of the choice: ``escape_vc_choices``
                    # is the router's call and may mutate (Dateline flips
                    # its balance bit per attempt), and looking at a
                    # network must not change it.
                    held = int(ctx.dl_high) if ctx is not None else None
                    for vc in fc.certify_escape_classes(
                        packet, router.node, escape_port, in_ring, held
                    ):
                        ovc = outs[vc]
                        if not router._ovc_admits(ovc, packet):
                            reasons.append(
                                f"esc vc{vc}: not admitted (alloc="
                                f"{ovc.allocated_to.pid if ovc.allocated_to else None},"
                                f" credits={ovc.credits})"
                            )
                        else:
                            down = ovc.downstream
                            reasons.append(
                                f"esc vc{vc}: flow control denies "
                                f"(color={down.color.name}, ring={down.ring_id}, "
                                f"in_ring={in_ring})"
                            )
                out.append(
                    {
                        "node": router.node,
                        "buffer": ivc.label(),
                        "pid": packet.pid,
                        "len": packet.length,
                        "dst": packet.dst,
                        "escape_port": escape_port,
                        "in_ring_src": ivc.ring_id,
                        "ctx": (
                            (ctx.ring_id, ctx.ch, ctx.flits_entered, ctx.holds_gray)
                            if ctx
                            else None
                        ),
                        "reasons": reasons,
                    }
                )
    return out


def format_blocked_heads(network: "Network", limit: int = 40) -> str:
    """Human-readable wedge report."""
    records = blocked_heads(network)
    lines = [f"{len(records)} blocked heads"]
    for r in records[:limit]:
        lines.append(
            f"  n{r['node']} {r['buffer']} p{r['pid']} len{r['len']} -> dst "
            f"{r['dst']} via port {r['escape_port']} ctx={r['ctx']}: "
            + "; ".join(r["reasons"])
        )
    return "\n".join(lines)
