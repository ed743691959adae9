"""The typed probe bus: the one seam every measurement flows through.

A :class:`ProbeBus` lives on every :class:`~repro.network.network.Network`
(``network.probes``).  Instrumented call sites in the NIC, router, buffers
and flow-control schemes dispatch *probe events* into it; measurement code
(:mod:`repro.metrics`), samplers and exporters subscribe to the events
they need instead of reaching into engine internals.

The event stream is part of the engine-backend contract: every backend
dispatches the same events with the same arguments, at the same cycle and
in the same order (the array engine mirrors the router, delivery and NIC
sites below; the flow-control sites run live under both).  What an
``InputVC`` argument carries exactly under every backend is listed in
:mod:`repro.sim.soa`'s module notes.

Zero-cost contract
------------------
Detailed (per-flit / per-token) probe sites are guarded by
``if probes.active:`` — with no detailed subscriber the simulation pays a
single attribute test per site and dispatches nothing, keeping results
bit-identical.  What attached sinks cost is measured by the perf ledger
(``benchmarks/ledger``) as ``telemetry.probe_overhead_frac`` on the
``torus8_wbfc1_probed`` workload.  The one exception is
``packet_ejected``: it fires unconditionally (it replaces the old
``Network.ejection_listeners`` seam and the core metrics collector always
listens), and it is per-packet, not per-flit.

Probe taxonomy (arguments in dispatch order):

========================  ====================================================
``packet_offered``        ``(node, packet, accepted, cycle)`` — workload
                          offered a packet to a NIC (``accepted=False`` when
                          a bounded source queue dropped it)
``packet_staged``         ``(node, packet, cycle)`` — NIC staged the packet
                          into a LOCAL injection slot
``packet_injected``       ``(node, packet, cycle)`` — head flit left the
                          staging slot into the network proper
``packet_ejected``        ``(packet, cycle)`` — tail consumed at the
                          destination NIC (**always dispatched**)
``flit_delivered``        ``(ivc, flit, cycle)`` — flit written into a
                          downstream input VC (link traversal completed)
``flit_sent``             ``(node, ivc, flit, cycle)`` — flit won switch
                          allocation and left ``ivc`` (``ivc.out_port`` /
                          ``ivc.out_vc`` name the crossing)
``va_grant``              ``(node, ivc, packet, out_port, out_vc, escape,
                          wait, cycle)`` — VC allocation succeeded after
                          ``wait`` cycles of VA requests
``credit_stall``          ``(node, ivc, cycle)`` — an ACTIVE VC could not
                          send because the downstream VC had no credit
``buffer_occupancy``      ``(ivc, delta)`` — a flit entered (+1) or left
                          (-1) the buffer
``wb_color``              ``(ivc, old, new, reason)`` — a worm-bubble color
                          transition (reasons: ``mark``, ``unmark``,
                          ``park``, ``settle``, ``reclaim``,
                          ``black_reentry``)
``ci_update``             ``(node, ring_id, delta, reason)`` — a CI counter
                          change (reasons: ``mark``, ``inject``, ``bank``,
                          ``reclaim``, ``drift``)
``fc_event``              ``(name, key)`` — a named flow-control event on
                          ring/channel ``key`` (scheme-specific)
========================  ====================================================
"""

from __future__ import annotations

from typing import Callable

__all__ = ["PROBE_EVENTS", "ProbeSink", "ProbeBus"]


#: Every event the bus can dispatch, in documentation order.
PROBE_EVENTS = (
    "packet_offered",
    "packet_staged",
    "packet_injected",
    "packet_ejected",
    "flit_delivered",
    "flit_sent",
    "va_grant",
    "credit_stall",
    "buffer_occupancy",
    "wb_color",
    "ci_update",
    "fc_event",
)


class ProbeSink:
    """No-op base class for probe subscribers.

    Subclasses override only the events they care about;
    :meth:`ProbeBus.add_sink` subscribes exactly the overridden methods, so
    un-overridden events cost nothing even while the sink is attached.
    """

    def packet_offered(self, node, packet, accepted, cycle) -> None: ...

    def packet_staged(self, node, packet, cycle) -> None: ...

    def packet_injected(self, node, packet, cycle) -> None: ...

    def packet_ejected(self, packet, cycle) -> None: ...

    def flit_delivered(self, ivc, flit, cycle) -> None: ...

    def flit_sent(self, node, ivc, flit, cycle) -> None: ...

    def va_grant(self, node, ivc, packet, out_port, out_vc, escape, wait, cycle) -> None: ...

    def credit_stall(self, node, ivc, cycle) -> None: ...

    def buffer_occupancy(self, ivc, delta) -> None: ...

    def wb_color(self, ivc, old, new, reason) -> None: ...

    def ci_update(self, node, ring_id, delta, reason) -> None: ...

    def fc_event(self, name, key) -> None: ...


class ProbeBus:
    """Per-network dispatch hub for probe events.

    Dispatch methods iterate the event's subscriber list directly; call
    sites for every event except ``packet_ejected`` must first check
    :attr:`active` so an un-instrumented simulation never pays dispatch
    costs (the zero-cost contract above).
    """

    __slots__ = ("active",) + tuple(f"_{event}" for event in PROBE_EVENTS)

    def __init__(self) -> None:
        #: True iff any *detailed* event (anything but ``packet_ejected``)
        #: has a subscriber; hot call sites gate on this single attribute.
        self.active = False
        for event in PROBE_EVENTS:
            setattr(self, f"_{event}", [])

    # -- subscription ------------------------------------------------------

    def subscribe(self, event: str, callback: Callable) -> None:
        """Register ``callback`` for ``event`` (see :data:`PROBE_EVENTS`)."""
        if event not in PROBE_EVENTS:
            raise ValueError(f"unknown probe event {event!r}")
        getattr(self, f"_{event}").append(callback)
        if event != "packet_ejected":
            self.active = True

    def unsubscribe(self, event: str, callback: Callable) -> None:
        """Remove one registration; recomputes the :attr:`active` flag."""
        getattr(self, f"_{event}").remove(callback)
        self.active = any(
            getattr(self, f"_{event}")
            for event in PROBE_EVENTS
            if event != "packet_ejected"
        )

    def add_sink(self, sink: ProbeSink) -> None:
        """Subscribe every probe method ``sink`` overrides."""
        for event in PROBE_EVENTS:
            method = getattr(type(sink), event, None)
            if method is not None and method is not getattr(ProbeSink, event):
                self.subscribe(event, getattr(sink, event))

    def remove_sink(self, sink: ProbeSink) -> None:
        """Undo :meth:`add_sink`."""
        for event in PROBE_EVENTS:
            method = getattr(type(sink), event, None)
            if method is not None and method is not getattr(ProbeSink, event):
                self.unsubscribe(event, getattr(sink, event))

    def subscribers(self, event: str) -> tuple:
        """Current subscribers of ``event`` (for tests/introspection)."""
        return tuple(getattr(self, f"_{event}"))

    # -- dispatch ----------------------------------------------------------
    # One explicit method per event: positional dispatch through a plain
    # list, the cheapest structure Python offers for this fan-out.

    def packet_offered(self, node, packet, accepted, cycle) -> None:
        for fn in self._packet_offered:
            fn(node, packet, accepted, cycle)

    def packet_staged(self, node, packet, cycle) -> None:
        for fn in self._packet_staged:
            fn(node, packet, cycle)

    def packet_injected(self, node, packet, cycle) -> None:
        for fn in self._packet_injected:
            fn(node, packet, cycle)

    def packet_ejected(self, packet, cycle) -> None:
        for fn in self._packet_ejected:
            fn(packet, cycle)

    def flit_delivered(self, ivc, flit, cycle) -> None:
        for fn in self._flit_delivered:
            fn(ivc, flit, cycle)

    def flit_sent(self, node, ivc, flit, cycle) -> None:
        for fn in self._flit_sent:
            fn(node, ivc, flit, cycle)

    def va_grant(self, node, ivc, packet, out_port, out_vc, escape, wait, cycle) -> None:
        for fn in self._va_grant:
            fn(node, ivc, packet, out_port, out_vc, escape, wait, cycle)

    def credit_stall(self, node, ivc, cycle) -> None:
        for fn in self._credit_stall:
            fn(node, ivc, cycle)

    def buffer_occupancy(self, ivc, delta) -> None:
        for fn in self._buffer_occupancy:
            fn(ivc, delta)

    def wb_color(self, ivc, old, new, reason) -> None:
        for fn in self._wb_color:
            fn(ivc, old, new, reason)

    def ci_update(self, node, ring_id, delta, reason) -> None:
        for fn in self._ci_update:
            fn(node, ring_id, delta, reason)

    def fc_event(self, name, key) -> None:
        for fn in self._fc_event:
            fn(name, key)
