"""Declarative scenario specifications.

A :class:`ScenarioSpec` names everything a measurement point depends on —
design, topology spec string, traffic pattern, injection rate, the full
:class:`~repro.sim.config.SimulationConfig`, packet-length distribution,
seed and the warmup/measure/drain schedule — as a frozen, hashable value.
Two properties follow from that:

* **One execution path.**  :func:`prepare` builds the network/workload/
  collector/simulator bundle and :func:`execute` runs the paper's
  warmup-measure-drain protocol, so every harness (sweeps, figure scripts,
  sensitivity studies) shares identical plumbing instead of re-implementing
  it.
* **Content-addressed results.**  :meth:`ScenarioSpec.content_hash` is a
  SHA-256 over the canonical JSON form of the spec.  The hash is stable
  across processes and sessions, which is what lets
  :class:`~repro.sim.checkpoint.ResultStore` resume interrupted sweeps and
  skip already-computed points.

Every field is either a primitive or a registry name, so specs pickle
cheaply into pool workers and serialize losslessly:
``ScenarioSpec.from_dict(spec.to_dict()) == spec``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping

from ..network.switching import Switching
from .config import SimulationConfig

if TYPE_CHECKING:  # pragma: no cover
    from ..metrics.stats import MeasurementSummary, MetricsCollector
    from ..network.network import Network
    from ..sim.engine import Simulator
    from ..topology.base import Topology

__all__ = [
    "ScenarioSpec",
    "PreparedScenario",
    "prepare",
    "execute",
    "execution_stats",
    "reset_execution_stats",
]


#: Cross-process observable of what ``execute`` actually did, for tests and
#: the CI resumability smoke: ``simulated`` counts points that ran cycles,
#: ``cache_hits`` counts points answered entirely from a result store.
_STATS = {"simulated": 0, "cache_hits": 0}


def execution_stats() -> dict[str, int]:
    """Copy of this process's ``execute`` counters."""
    return dict(_STATS)


def reset_execution_stats() -> None:
    _STATS["simulated"] = 0
    _STATS["cache_hits"] = 0


def _params_tuple(params: Mapping[str, Any] | tuple | None) -> tuple:
    """Normalize scheme parameters to a sorted, hashable tuple of pairs."""
    if not params:
        return ()
    items = params.items() if isinstance(params, Mapping) else params
    return tuple(sorted((str(k), v) for k, v in items))


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything one measurement point depends on, as a value."""

    design: str
    topology: str
    pattern: str = "UR"
    injection_rate: float = 0.1
    config: SimulationConfig = field(default_factory=SimulationConfig)
    #: ``(name, *args)`` for :data:`~repro.registry.LENGTH_DISTRIBUTIONS`;
    #: the bare default is the paper's bimodal mix.
    lengths: tuple = ("bimodal",)
    seed: int = 1
    warmup: int = 1_000
    measure: int = 4_000
    drain: int = 0
    #: Flow-control constructor keywords (e.g. WBFC's ``reclaim_patience``)
    #: as sorted ``(key, value)`` pairs so the spec stays hashable.
    fc_params: tuple = ()
    #: Telemetry features to collect (``repro.telemetry.FEATURES`` names or
    #: ``"full"``); empty means the probe bus stays inactive.  Folded into
    #: :meth:`content_hash` — a telemetry-on result is a different artifact.
    telemetry: tuple = ()
    #: Engine backend name (:data:`~repro.registry.ENGINE_BACKENDS`).
    #: Deliberately **excluded** from :meth:`content_hash`: backends are
    #: bit-identical by contract, so the result store dedups across them.
    #: The ``REPRO_BACKEND`` environment variable overrides this field at
    #: ``prepare`` time; a backend that rejects the configuration falls
    #: back to ``"object"`` with a ``BackendFallbackWarning`` (see
    #: ``PreparedScenario.backend_unsupported``).
    backend: str = "object"

    def __post_init__(self) -> None:
        if self.injection_rate < 0:
            raise ValueError("injection_rate must be >= 0")
        if self.warmup < 0 or self.measure < 0 or self.drain < 0:
            raise ValueError("warmup/measure/drain must be >= 0")
        object.__setattr__(self, "lengths", tuple(self.lengths))
        object.__setattr__(self, "fc_params", _params_tuple(self.fc_params))
        from ..telemetry.session import normalize_features

        object.__setattr__(self, "telemetry", normalize_features(self.telemetry))

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-data form: JSON-safe, invertible via :meth:`from_dict`."""
        cfg = dataclasses.asdict(self.config)
        cfg["switching"] = self.config.switching.value
        return {
            "design": self.design,
            "topology": self.topology,
            "pattern": self.pattern,
            "injection_rate": self.injection_rate,
            "config": cfg,
            "lengths": list(self.lengths),
            "seed": self.seed,
            "warmup": self.warmup,
            "measure": self.measure,
            "drain": self.drain,
            "fc_params": [[k, v] for k, v in self.fc_params],
            "telemetry": list(self.telemetry),
            "backend": self.backend,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        data = dict(data)
        cfg = dict(data.pop("config"))
        cfg["switching"] = Switching(cfg["switching"])
        return cls(
            config=SimulationConfig(**cfg),
            lengths=tuple(data.pop("lengths")),
            fc_params=tuple((k, v) for k, v in data.pop("fc_params", [])),
            telemetry=tuple(data.pop("telemetry", [])),
            **data,
        )

    def content_hash(self) -> str:
        """SHA-256 of the canonical JSON form; the result-store key.

        Canonical means sorted keys and minimal separators, so the hash is
        independent of dict ordering, process, and platform.  The
        ``backend`` field is excluded: backends are bit-identical by
        contract, so the same point computed under either engine is the
        same artifact and the store dedups across them.
        """
        payload = self.to_dict()
        del payload["backend"]
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass
class PreparedScenario:
    """The live objects ``prepare`` assembled for one spec."""

    spec: ScenarioSpec
    topology: "Topology"
    network: "Network"
    workload: Any
    collector: "MetricsCollector"
    simulator: "Simulator"
    #: Attached :class:`~repro.telemetry.session.TelemetrySession` when the
    #: spec requested telemetry features; ``None`` otherwise.
    telemetry: Any = None
    #: Engine backend actually driving ``simulator`` after resolution
    #: (spec field, ``REPRO_BACKEND`` override, unsupported fallback).
    backend: str = "object"
    #: The :class:`~repro.sim.engine.BackendUnsupported` that forced a
    #: fallback to the object engine, if any; ``None`` when the requested
    #: backend was honored.
    backend_unsupported: Any = None


def prepare(spec: ScenarioSpec, *, watchdog: Any = None) -> PreparedScenario:
    """Build the network/workload/collector/simulator bundle for ``spec``.

    ``watchdog`` overrides the default deadlock watchdog (5 000-cycle
    window), for harnesses that tolerate deadlock and inspect it instead
    of raising.  Since a watchdog wraps the network ``prepare`` is about
    to build, it may also be a factory called as ``watchdog(network)``.
    """
    from ..experiments.designs import build_network
    from ..metrics.stats import MetricsCollector
    from ..registry import parse_topology
    from ..sim.deadlock import Watchdog
    from ..sim.engine import Simulator
    from ..traffic.generator import SyntheticTraffic
    from ..traffic.lengths import lengths_from_spec
    from ..traffic.patterns import make_pattern

    topology = parse_topology(spec.topology)
    network = build_network(
        spec.design, topology, spec.config, fc_params=dict(spec.fc_params)
    )
    pattern = make_pattern(spec.pattern, topology)
    workload = SyntheticTraffic(
        pattern,
        spec.injection_rate,
        lengths=lengths_from_spec(spec.lengths),
        seed=spec.seed,
    )
    collector = MetricsCollector(network)
    if watchdog is None:
        watchdog = Watchdog(network, deadlock_window=5_000)
    elif callable(watchdog) and not isinstance(watchdog, Watchdog):
        watchdog = watchdog(network)
    simulator = Simulator(network, workload, watchdog=watchdog)
    telemetry = None
    if spec.telemetry:
        from ..telemetry.session import TelemetrySession

        telemetry = TelemetrySession(network, spec.telemetry).attach(simulator)
    # Backend resolution happens last, against the fully assembled (and
    # telemetry-attached) simulator, so a backend sees exactly what it
    # would have to drive.  The environment override wins over the spec
    # field — the same precedence as REPRO_SANITIZE — so sweeps can be
    # re-run under another engine without touching their specs.
    import os
    import warnings

    from ..registry import ENGINE_BACKENDS
    from ..sim.engine import BackendFallbackWarning, BackendUnsupported

    backend = os.environ.get("REPRO_BACKEND") or spec.backend
    engine = simulator
    unsupported = None
    if ENGINE_BACKENDS._norm(backend) != "object":
        try:
            engine = ENGINE_BACKENDS.create(backend, simulator)
        except BackendUnsupported as exc:
            # Bit-identical contract: the object engine computes the same
            # result, so fall back, record the witness, and say so once
            # per call site (the default ``warnings`` filter).
            warnings.warn(
                f"backend {backend!r} cannot drive this scenario, running "
                f"'object' instead: {exc.reason} {exc.witness!r}",
                BackendFallbackWarning,
                stacklevel=2,
            )
            engine, backend, unsupported = simulator, "object", exc
    else:
        backend = "object"
    return PreparedScenario(
        spec,
        topology,
        network,
        workload,
        collector,
        engine,
        telemetry,
        backend,
        unsupported,
    )


def execute(
    spec: ScenarioSpec,
    *,
    store: Any = None,
    watchdog: Any = None,
) -> "MeasurementSummary":
    """Run ``spec``'s warmup-measure-drain protocol and return its summary.

    With a :class:`~repro.sim.checkpoint.ResultStore` (passed explicitly or
    ambient via ``REPRO_RESULT_STORE``), a previously computed summary is
    returned without simulating a single cycle, and fresh results are
    persisted for the next run.
    """
    from .checkpoint import default_store

    if store is None:
        store = default_store()
    if store is not None:
        cached = store.get(spec)
        if cached is not None:
            _STATS["cache_hits"] += 1
            return cached
    prepared = prepare(spec, watchdog=watchdog)
    simulator, collector = prepared.simulator, prepared.collector
    simulator.run(spec.warmup)
    collector.begin(simulator.cycle)
    simulator.run(spec.measure)
    collector.end(simulator.cycle)
    if spec.drain:
        prepared.workload.stop()
        simulator.drain(spec.drain)
    summary = collector.summary()
    if prepared.telemetry is not None:
        summary = dataclasses.replace(summary, telemetry=prepared.telemetry.report())
    _STATS["simulated"] += 1
    if store is not None:
        store.put(spec, summary)
    return summary
