"""Component registries: the extension seam for schemes and scenarios.

Every pluggable ingredient of a scenario — flow-control scheme, routing
function, topology, traffic pattern, packet-length distribution — lives in
a :class:`Registry` and is addressed by a short string name.  Defining
modules self-register with the decorator form::

    @FLOW_CONTROLS.register("wbfc")
    class WormBubbleFlowControl(FlowControl): ...

so adding a new scheme never requires editing a factory; declarative
:class:`~repro.sim.spec.ScenarioSpec` instances (and the analysis CLI)
resolve the same names through :meth:`Registry.create`.

Import order is the one subtlety.  This module imports nothing from the
rest of the package, so component modules can import their registry freely;
conversely a lookup must not fail merely because the defining module has
not been imported yet.  Each registry therefore carries the list of modules
known to register into it and imports them lazily on the first miss.

Topology *specification strings* — ``"torus:8x8"``, ``"mesh:4x4"``,
``"ring:8"``, ``"hring:4x4"`` — are parsed by :func:`parse_topology`, the
single place the string form is interpreted.  Registered topology classes
provide a ``from_radices`` classmethod; the part after ``:`` is an
``x``-separated radix list.  Spec strings are picklable and hashable,
which is what lets sweeps fan topology choices across processes and lets
result stores key on them.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Iterator

__all__ = [
    "Registry",
    "FLOW_CONTROLS",
    "ROUTINGS",
    "TOPOLOGIES",
    "TRAFFIC_PATTERNS",
    "LENGTH_DISTRIBUTIONS",
    "ENGINE_BACKENDS",
    "parse_topology",
    "topology_spec",
]


class Registry:
    """A case-insensitive name -> factory mapping with lazy population."""

    def __init__(self, kind: str, modules: tuple[str, ...] = ()):
        self.kind = kind
        self._modules = modules
        self._loaded = False
        self._entries: dict[str, Any] = {}
        # Primary (first-registered) name per object, for reverse lookups.
        self._primary: dict[int, str] = {}

    @staticmethod
    def _norm(name: str) -> str:
        return name.strip().lower()

    def register(self, name: str, *aliases: str) -> Callable[[Any], Any]:
        """Decorator: file the decorated class/factory under ``name``."""

        def deco(obj: Any) -> Any:
            for n in (name, *aliases):
                key = self._norm(n)
                existing = self._entries.get(key)
                if existing is not None and existing is not obj:
                    raise ValueError(
                        f"{self.kind} registry: name {n!r} already taken by "
                        f"{existing!r}"
                    )
                self._entries[key] = obj
            self._primary.setdefault(id(obj), self._norm(name))
            return obj

        return deco

    def _ensure_loaded(self) -> None:
        if self._loaded:
            return
        self._loaded = True
        for module in self._modules:
            importlib.import_module(module)

    def get(self, name: str) -> Any:
        """The factory registered under ``name`` (loading modules if needed)."""
        key = self._norm(name)
        if key not in self._entries:
            self._ensure_loaded()
        try:
            return self._entries[key]
        except KeyError:
            import difflib

            close = difflib.get_close_matches(key, self.names(), n=1)
            hint = f"; did you mean {close[0]!r}?" if close else ""
            raise ValueError(
                f"unknown {self.kind} {name!r}; choose from {self.names()}{hint}"
            ) from None

    def create(self, name: str, *args: Any, **kwargs: Any) -> Any:
        """Instantiate the factory registered under ``name``."""
        return self.get(name)(*args, **kwargs)

    def name_of(self, obj: Any) -> str:
        """Primary name a class/factory was registered under."""
        self._ensure_loaded()
        try:
            return self._primary[id(obj)]
        except KeyError:
            raise ValueError(f"{obj!r} is not a registered {self.kind}") from None

    def names(self) -> list[str]:
        """All registered names (primary and aliases), sorted."""
        self._ensure_loaded()
        return sorted(self._entries)

    def __contains__(self, name: str) -> bool:
        self._ensure_loaded()
        return self._norm(name) in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())


#: Flow-control schemes (``FlowControl`` subclasses).
FLOW_CONTROLS = Registry(
    "flow control",
    (
        "repro.core.wbfc",
        "repro.core.flit_level",
        "repro.flowcontrol.dateline",
        "repro.flowcontrol.cbs",
        "repro.flowcontrol.unrestricted",
    ),
)

#: Routing functions; factories take the topology as sole argument.
ROUTINGS = Registry(
    "routing function",
    (
        "repro.routing.dor",
        "repro.routing.duato",
        "repro.routing.ring_routing",
    ),
)

#: Topology classes; each provides ``from_radices(radices)``.
TOPOLOGIES = Registry(
    "topology",
    (
        "repro.topology.torus",
        "repro.topology.mesh",
        "repro.topology.ring",
        "repro.topology.hierarchical_ring",
    ),
)

#: Traffic patterns; factories take the topology as sole argument.
TRAFFIC_PATTERNS = Registry(
    "traffic pattern",
    ("repro.traffic.patterns",),
)

#: Packet-length distributions; factories take the distribution's own args.
LENGTH_DISTRIBUTIONS = Registry(
    "length distribution",
    ("repro.traffic.lengths",),
)

#: Engine backends; factories take the fully built object
#: :class:`~repro.sim.engine.Simulator` and return the engine that will
#: step it (the backend seam — see API.md "Engine backends").  Backends
#: are bit-identical by contract, so ``ScenarioSpec.content_hash``
#: deliberately excludes the backend choice; a backend that cannot drive
#: the given configuration raises
#: :class:`~repro.sim.engine.BackendUnsupported` from its factory and the
#: caller falls back to ``"object"``.
ENGINE_BACKENDS = Registry(
    "engine backend",
    ("repro.sim.engine", "repro.sim.soa"),
)


def parse_topology(spec: str) -> Any:
    """Build a topology from a spec string like ``"torus:8x8"``.

    The grammar is ``<name>:<radix>[x<radix>...]`` with ``<name>`` resolved
    through :data:`TOPOLOGIES`.  An already-built topology object passes
    through unchanged, so call sites can accept either form.
    """
    if not isinstance(spec, str):
        return spec
    kind, sep, dims = spec.partition(":")
    if not sep or not dims:
        raise ValueError(
            f"bad topology spec {spec!r}: expected '<name>:<radices>' "
            f"like 'torus:8x8'"
        )
    cls = TOPOLOGIES.get(kind)
    try:
        radices = tuple(int(r) for r in dims.split("x"))
    except ValueError:
        raise ValueError(
            f"bad topology spec {spec!r}: radices must be integers"
        ) from None
    return cls.from_radices(radices)


def topology_spec(topology: Any) -> str:
    """The spec string for a built topology: ``parse_topology``'s inverse.

    Requires the topology's class to be registered and to expose its
    ``radices``; raises :class:`ValueError` otherwise (ad-hoc topologies
    have no serializable name).
    """
    if isinstance(topology, str):
        return topology
    name = TOPOLOGIES.name_of(type(topology))
    radices = getattr(topology, "radices", None)
    if not radices:
        raise ValueError(
            f"topology {topology!r} has no radices; cannot form a spec string"
        )
    return f"{name}:{'x'.join(str(int(r)) for r in radices)}"
