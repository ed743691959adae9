"""Telemetry sessions and their portable, mergeable reports.

:class:`TelemetrySession` bundles the standard sinks for a chosen feature
set, subscribes them to a network's probe bus, and renders a
:class:`TelemetryReport` — plain data that serializes losslessly through
the JSON result store and merges across parallel sweep workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from .histograms import Histogram
from .sinks import CounterSink, HistogramSink, TimeSeriesSampler
from .trace import ChromeTraceSink, write_chrome_trace

if TYPE_CHECKING:  # pragma: no cover
    from ..network.network import Network
    from ..sim.engine import Simulator

__all__ = [
    "FEATURES",
    "normalize_features",
    "TelemetryReport",
    "TelemetrySession",
    "merge_reports",
]

#: Selectable telemetry features (``"full"`` expands to all of them).
FEATURES = ("counters", "histograms", "timeseries", "trace")


def normalize_features(features) -> tuple[str, ...]:
    """Canonical sorted feature tuple; accepts a name, iterable, or ``full``."""
    if isinstance(features, str):
        features = (features,)
    out: set[str] = set()
    for feature in features:
        if feature == "full":
            out.update(FEATURES)
        elif feature in FEATURES:
            out.add(feature)
        else:
            raise ValueError(
                f"unknown telemetry feature {feature!r}; "
                f"choose from {FEATURES + ('full',)}"
            )
    return tuple(sorted(out))


@dataclass
class TelemetryReport:
    """Plain-data rendering of one telemetry session.

    ``counters`` and ``histograms`` are mergeable across runs (see
    :func:`merge_reports`); ``series`` and ``trace_events`` are per-run
    observations and are dropped by merging.  Everything is JSON-plain, so
    a report rides inside a ``MeasurementSummary`` through the result
    store and back via :meth:`from_dict`.
    """

    features: tuple = ()
    counters: dict = field(default_factory=dict)
    histograms: dict = field(default_factory=dict)
    series: list = field(default_factory=list)
    trace_events: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "features": list(self.features),
            "counters": self.counters,
            "histograms": {k: h.to_dict() for k, h in self.histograms.items()},
            "series": self.series,
            "trace_events": self.trace_events,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TelemetryReport":
        return cls(
            features=tuple(data.get("features", ())),
            counters=data.get("counters", {}),
            histograms={
                k: h if isinstance(h, Histogram) else Histogram.from_dict(h)
                for k, h in data.get("histograms", {}).items()
            },
            series=list(data.get("series", [])),
            trace_events=list(data.get("trace_events", [])),
        )


def _add_counters(into: dict, other: dict) -> None:
    for key, value in other.items():
        if isinstance(value, dict):
            _add_counters(into.setdefault(key, {}), value)
        else:
            into[key] = into.get(key, 0) + value


def merge_reports(reports: Iterable[TelemetryReport]) -> TelemetryReport:
    """Fold reports from independent runs (e.g. parallel sweep points).

    Counters add; histograms merge bin-wise (associative and commutative,
    so worker scheduling can never change the merged numbers); per-run
    ``series``/``trace_events`` are dropped — inspect them on the
    individual point summaries instead.
    """
    features: set[str] = set()
    counters: dict = {}
    histograms: dict[str, Histogram] = {}
    for report in reports:
        if report is None:
            continue
        features.update(report.features)
        _add_counters(counters, report.counters)
        for name, hist in report.histograms.items():
            histograms[name] = (
                histograms[name].merge(hist) if name in histograms else hist
            )
    return TelemetryReport(
        features=tuple(sorted(features)),
        counters=counters,
        histograms=histograms,
    )


class TelemetrySession:
    """Attach a feature set's sinks to one network (and simulator).

    Construction subscribes the probe sinks immediately; :meth:`attach`
    additionally hooks the time-series sampler into a simulator's
    per-cycle listeners.  :meth:`report` renders the collected data;
    :meth:`detach` unsubscribes everything.
    """

    def __init__(
        self,
        network: "Network",
        features=("counters", "histograms"),
        *,
        sample_interval: int = 64,
    ):
        self.network = network
        self.features = normalize_features(features)
        self.counters = CounterSink() if "counters" in self.features else None
        self.histograms = HistogramSink() if "histograms" in self.features else None
        self.trace = ChromeTraceSink(network) if "trace" in self.features else None
        self.sampler = (
            TimeSeriesSampler(network, sample_interval)
            if "timeseries" in self.features
            else None
        )
        self._simulator: "Simulator | None" = None
        for sink in (self.counters, self.histograms, self.trace):
            if sink is not None:
                network.probes.add_sink(sink)

    def attach(self, simulator: "Simulator") -> "TelemetrySession":
        """Hook the sampler into ``simulator`` and advertise the session."""
        self._simulator = simulator
        if self.sampler is not None:
            simulator.cycle_listeners.append(self.sampler)
        simulator.telemetry = self
        return self

    def owns(self, callback) -> bool:
        """True for this session's own sink methods and its sampler (what
        an engine backend may trust to read only probe-exact state)."""
        owner = getattr(callback, "__self__", callback)
        return owner is not None and any(
            owner is part
            for part in (self.counters, self.histograms, self.trace, self.sampler)
        )

    def detach(self) -> None:
        """Unsubscribe all sinks; the session's collected data stays valid."""
        for sink in (self.counters, self.histograms, self.trace):
            if sink is not None:
                self.network.probes.remove_sink(sink)
        if self.sampler is not None and self._simulator is not None:
            try:
                self._simulator.cycle_listeners.remove(self.sampler)
            except ValueError:
                pass
        if self._simulator is not None and self._simulator.telemetry is self:
            self._simulator.telemetry = None

    def report(self) -> TelemetryReport:
        """Render everything collected so far as plain data."""
        return TelemetryReport(
            features=self.features,
            counters=self.counters.as_dict() if self.counters else {},
            histograms=dict(self.histograms.as_dict()) if self.histograms else {},
            series=list(self.sampler.samples) if self.sampler else [],
            trace_events=list(self.trace.events) if self.trace else [],
        )

    def write_chrome_trace(self, path) -> int:
        """Write collected trace events as Chrome-trace JSON; event count."""
        if self.trace is None:
            raise RuntimeError("session was created without the 'trace' feature")
        return write_chrome_trace(self.network, self.trace.events, path)
