"""Standard probe sinks: counters, histograms, periodic time series.

All three produce JSON-plain data (string keys, ints/floats/lists only) so
their output rides inside :class:`~repro.metrics.stats.MeasurementSummary`
records through the result store and across process-pool workers
unchanged.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..topology.base import LOCAL_PORT
from .histograms import Histogram
from .inspect import ring_color_census, ring_ids
from .probes import ProbeSink

if TYPE_CHECKING:  # pragma: no cover
    from ..network.network import Network

__all__ = ["CounterSink", "HistogramSink", "TimeSeriesSampler"]


class CounterSink(ProbeSink):
    """Per-router, per-link, per-VC and flow-control event counters.

    Rendered, everything is a plain ``dict[str, dict[str, int]]`` keyed by
    stable string labels (``"7"`` for node 7, ``"n7>p2"`` for node 7's
    output port 2, ``ivc.label()`` for a VC), merged across workers by
    addition.  The per-flit events tally on the hashable thing itself —
    ``(node, event)``, ``(node, out_port)``, the ``InputVC`` — and the
    labels are built once per key when read (:meth:`as_dict` and the
    ``router`` / ``link`` / ``vc_writes`` / ``vc_peak`` views), not once
    per event.
    """

    def __init__(self) -> None:
        #: (node, event name) -> count
        self._router: dict[tuple[int, str], int] = {}
        #: (node, out_port) -> flit traversals entering that link
        self._link: dict[tuple[int, int], int] = {}
        #: ivc -> [occupancy since attach, buffer writes, peak occupancy]
        self._vc: dict[object, list[int]] = {}
        #: "{ring_id}:{reason}" -> worm-bubble color transitions
        self.wb: dict[str, int] = {}
        #: "{ring_id}:{reason}" -> CI counter updates (event counts)
        self.ci_events: dict[str, int] = {}
        #: scheme-specific event name -> count
        self.fc: dict[str, int] = {}

    def _bump(self, node: int, event: str) -> None:
        key = (node, event)
        self._router[key] = self._router.get(key, 0) + 1

    # -- probe methods ------------------------------------------------------

    def packet_offered(self, node, packet, accepted, cycle) -> None:
        self._bump(node, "packets_offered" if accepted else "packets_dropped")

    def packet_staged(self, node, packet, cycle) -> None:
        self._bump(node, "packets_staged")

    def packet_injected(self, node, packet, cycle) -> None:
        self._bump(node, "packets_injected")

    def packet_ejected(self, packet, cycle) -> None:
        self._bump(packet.dst, "packets_ejected")

    def flit_delivered(self, ivc, flit, cycle) -> None:
        self._bump(ivc.node, "flits_received")

    def flit_sent(self, node, ivc, flit, cycle) -> None:
        self._bump(node, "flits_sent")
        if ivc.out_port != LOCAL_PORT:
            key = (node, ivc.out_port)
            self._link[key] = self._link.get(key, 0) + 1

    def va_grant(self, node, ivc, packet, out_port, out_vc, escape, wait, cycle) -> None:
        self._bump(node, "va_grants")
        if escape:
            self._bump(node, "va_escape_grants")

    def credit_stall(self, node, ivc, cycle) -> None:
        self._bump(node, "credit_stalls")

    def buffer_occupancy(self, ivc, delta) -> None:
        tally = self._vc.get(ivc)
        if tally is None:
            tally = self._vc[ivc] = [0, 0, 0]
        occ = tally[0] = tally[0] + delta
        if delta > 0:
            tally[1] += 1
            if occ > tally[2]:
                tally[2] = occ

    def wb_color(self, ivc, old, new, reason) -> None:
        key = f"{ivc.ring_id}:{reason}"
        self.wb[key] = self.wb.get(key, 0) + 1

    def ci_update(self, node, ring_id, delta, reason) -> None:
        key = f"{ring_id}:{reason}"
        self.ci_events[key] = self.ci_events.get(key, 0) + 1

    def fc_event(self, name, key) -> None:
        self.fc[name] = self.fc.get(name, 0) + 1

    # -- export ------------------------------------------------------------

    @property
    def router(self) -> dict[str, dict[str, int]]:
        """node label -> event name -> count"""
        out: dict[str, dict[str, int]] = {}
        for (node, event), count in self._router.items():
            out.setdefault(str(node), {})[event] = count
        return out

    @property
    def link(self) -> dict[str, int]:
        """"n{node}>p{port}" -> flit traversals entering that link"""
        return {f"n{node}>p{port}": n for (node, port), n in self._link.items()}

    @property
    def vc_writes(self) -> dict[str, int]:
        """ivc label -> buffer writes"""
        return {ivc.label(): t[1] for ivc, t in self._vc.items() if t[1]}

    @property
    def vc_peak(self) -> dict[str, int]:
        """ivc label -> peak simultaneous occupancy observed"""
        return {ivc.label(): t[2] for ivc, t in self._vc.items() if t[2]}

    def as_dict(self) -> dict:
        """JSON-plain counter groups (see class docstring)."""
        return {
            "router": self.router,
            "link": self.link,
            "vc_writes": self.vc_writes,
            "vc_peak": self.vc_peak,
            "wb": dict(self.wb),
            "ci": dict(self.ci_events),
            "fc": dict(self.fc),
        }


class HistogramSink(ProbeSink):
    """Streaming latency/queueing-delay/injection-delay/hops histograms.

    Samples every packet ejected while attached (the whole attachment, not
    just a measurement window — window-scoped statistics stay the job of
    :class:`~repro.metrics.stats.MetricsCollector`, which shares the same
    histogram and quantile implementation).
    """

    def __init__(self, bin_width: int = 1) -> None:
        self.latency = Histogram(bin_width)
        #: Source queueing + injection wait: creation to head injection.
        self.queueing_delay = Histogram(bin_width)
        self.injection_delay = Histogram(bin_width)
        self.hops = Histogram(1)

    def packet_ejected(self, packet, cycle) -> None:
        if packet.latency is None or packet.injected_cycle is None:
            return
        self.latency.record(packet.latency)
        self.queueing_delay.record(packet.injected_cycle - packet.created_cycle)
        self.injection_delay.record(packet.injection_delay)
        self.hops.record(packet.hops)

    def as_dict(self) -> dict[str, Histogram]:
        return {
            "latency": self.latency,
            "queueing_delay": self.queueing_delay,
            "injection_delay": self.injection_delay,
            "hops": self.hops,
        }


class TimeSeriesSampler:
    """Periodic occupancy and worm-bubble color-census sampler.

    Not a probe sink: attach as a simulator cycle listener (``fn(cycle)``).
    Every ``interval`` cycles it records the O(1) occupancy counters and,
    for each ring, the color census.  Census reads flush deferred WBFC
    lane rotations, which is semantically transparent (bit-identity is
    pinned by test).
    """

    def __init__(self, network: "Network", interval: int = 64):
        if interval <= 0:
            raise ValueError("sample interval must be positive")
        self.network = network
        self.interval = interval
        self.samples: list[dict] = []
        self._rings = ring_ids(network)

    def __call__(self, cycle: int) -> None:
        if cycle % self.interval:
            return
        sample = dict(self.network.occupancy_snapshot())
        sample["cycle"] = cycle
        if self._rings:
            sample["rings"] = {
                rid: ring_color_census(self.network, rid) for rid in self._rings
            }
        self.samples.append(sample)

    # -- event-horizon wake contract (see API.md) --------------------------

    def next_wake(self, cycle: int) -> int:
        """Samples land on interval multiples; demand a tick there."""
        rem = cycle % self.interval
        return cycle if rem == 0 else cycle + (self.interval - rem)

    def skip_span(self, start: int, end: int) -> None:
        """Nothing to account: ``next_wake`` keeps every sample cycle
        ticked, so a skipped span never contains one."""
