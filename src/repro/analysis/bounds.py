"""Analytic saturation bounds from ScenarioSpecs.

Given any registered :class:`~repro.sim.spec.ScenarioSpec`, derive —
**without constructing a simulator** — a saturation-throughput bound from
channel-load analysis over the pattern's static traffic matrix.  Only
configurations the deadlock certifier (:mod:`repro.analysis.certify`)
accepts are bounded; a rejection is reported as :class:`BoundsUnsupported`
carrying the certificate's reason and witness cycle.  The same numbers
then serve as a correctness oracle: the validation harness replays any
result (from a :class:`~repro.sim.checkpoint.ResultStore` or a fresh run)
and asserts the simulated accepted throughput stays under the bound, so
every existing experiment doubles as a cross-check of both the simulator
and the math.

Saturation model (channel-load analysis)
----------------------------------------
The pattern's static matrix ``w(s, d)`` (:meth:`TrafficPattern.
static_flows`) gives per-channel loads.  With injection rate ``r`` in
flits/node/cycle, flow ``(s, d)`` carries ``r * w(s, d)`` flits/cycle, so
for deterministic designs the bottleneck escape channel caps the rate at
``r_sat = bw / max_c load(c)`` (ejection and injection links included).
Adaptive designs spread load over minimal paths; a sound bound intersects
the ideal capacity limit ``r * sum w * dist <= links * bw`` with per-node
ejection and injection limits.  The accepted-throughput bound follows as
``theta_sat = r_sat * sum_s g(s) / N`` with ``g(s)`` the probability a
start event at ``s`` materializes a packet.  Above ``r_sat`` the accepted
flow mix can shift, so the validation harness asserts the throughput
bound only at operating points strictly below the saturation bound (plus
an unconditional per-node ejection-capacity ceiling).

Command line::

    python -m repro.analysis bounds WBFC-1VC --topology torus:8x8 --json
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from ..network.flit import Packet
from ..topology.base import LOCAL_PORT
from .certify import certify_network

if TYPE_CHECKING:  # pragma: no cover
    from ..metrics.stats import MeasurementSummary
    from ..network.network import Network
    from ..sim.spec import ScenarioSpec

__all__ = [
    "BoundsUnsupported",
    "BoundsReport",
    "BoundsValidation",
    "compute_bounds",
    "compute_network_bounds",
    "validate_bounds",
]


@dataclass(frozen=True)
class BoundsUnsupported:
    """Explicit witness that a configuration has no analytic bound.

    Every registered (topology, routing, flow control, pattern) combination
    either gets a bound or one of these — never a silent gap.  ``witness``
    carries the concrete evidence when one exists (e.g. the certifier's
    dependence cycle for a scheme with no ring guarantee).
    """

    reason: str
    witness: tuple[str, ...] = ()


@dataclass(frozen=True)
class BoundsReport:
    """Static saturation bounds for one spec."""

    design: str
    topology: str
    pattern: str
    scheme: str
    supported: bool
    unsupported: BoundsUnsupported | None = None
    #: Model assumptions the bounds are valid under, one line each.
    assumptions: tuple[str, ...] = ()
    #: Per-ring exemption evidence from the deadlock certificate.
    exempt_rings: dict[str, str] = field(default_factory=dict)
    #: Offered injection rate (flits/node/cycle) at which the bottleneck
    #: channel saturates; ``inf`` when the pattern generates no traffic.
    saturation_injection_rate: float = 0.0
    #: Accepted-throughput bound (flits/node/cycle) at saturation.
    saturation_throughput: float = 0.0
    #: ``sum_s g(s) / N``: mean packets materialized per start event.
    generation_rate: float = 0.0
    #: Human-readable label of the limiting channel.
    bottleneck: str = ""

    def report(self) -> str:
        """Human-readable rendering, certifier style."""
        head = f"{self.design} on {self.topology}, pattern {self.pattern}"
        if not self.supported:
            lines = [f"BOUNDS UNSUPPORTED: {head}"]
            assert self.unsupported is not None
            lines.append(f"  reason: {self.unsupported.reason}")
            for label in self.unsupported.witness:
                lines.append(f"    -> {label}")
            return "\n".join(lines)
        lines = [
            f"BOUNDS: {head} ({self.scheme})",
            f"  certified deadlock-free, {len(self.exempt_rings)} exempt ring(s)",
            f"  saturation injection rate: "
            f"{self.saturation_injection_rate:.4f} flits/node/cycle"
            f" (bottleneck: {self.bottleneck})",
            f"  saturation throughput: "
            f"{self.saturation_throughput:.4f} flits/node/cycle accepted",
        ]
        for line in self.assumptions:
            lines.append(f"  assumes: {line}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-safe form (``inf`` rendered as ``None``)."""

        def _num(x: float) -> float | None:
            return None if x == float("inf") else x

        data: dict[str, Any] = {
            "design": self.design,
            "topology": self.topology,
            "pattern": self.pattern,
            "scheme": self.scheme,
            "supported": self.supported,
            "assumptions": list(self.assumptions),
            "exempt_rings": dict(self.exempt_rings),
            "saturation_injection_rate": _num(self.saturation_injection_rate),
            "saturation_throughput": _num(self.saturation_throughput),
            "generation_rate": self.generation_rate,
            "bottleneck": self.bottleneck,
        }
        if self.unsupported is not None:
            data["unsupported"] = {
                "reason": self.unsupported.reason,
                "witness": list(self.unsupported.witness),
            }
        return data


def _unsupported(
    design: str,
    topology: str,
    pattern: str,
    scheme: str,
    reason: str,
    witness: tuple[str, ...] = (),
) -> BoundsReport:
    return BoundsReport(
        design=design,
        topology=topology,
        pattern=pattern,
        scheme=scheme,
        supported=False,
        unsupported=BoundsUnsupported(reason=reason, witness=witness),
    )


def _is_deterministic(network: "Network") -> bool:
    """True when every packet rides the escape route (no adaptive choice)."""
    from ..routing.base import RoutingFunction

    if network.config.num_adaptive_vcs == 0:
        return True
    return type(network.routing).adaptive_ports is RoutingFunction.adaptive_ports


def compute_network_bounds(
    network: "Network",
    pattern_name: str,
    *,
    design_name: str = "",
    topology_name: str = "",
) -> BoundsReport:
    """Bounds for an already-built network (no simulator involved)."""
    from ..registry import topology_spec
    from ..traffic.patterns import make_pattern

    topo = network.topology
    cfg = network.config
    scheme = network.flow_control.name
    design = design_name or scheme
    try:
        topo_label = topology_name or topology_spec(topo)
    except ValueError:
        topo_label = type(topo).__name__

    try:
        pattern = make_pattern(pattern_name, topo)
    except (ValueError, TypeError) as exc:
        return _unsupported(
            design, topo_label, pattern_name, scheme,
            f"traffic pattern rejected this topology: {exc}",
        )
    flows = pattern.static_flows()
    if flows is None:
        return _unsupported(
            design, topo_label, pattern_name, scheme,
            f"pattern {pattern_name!r} has no static traffic matrix "
            "(static_flows returned None)",
        )

    try:
        cert = certify_network(network)
    except (ValueError, TypeError, NotImplementedError) as exc:
        # e.g. Dateline has no dateline placement for hierarchical rings:
        # the CDG itself cannot be constructed for this combination.
        return _unsupported(
            design, topo_label, pattern_name, scheme,
            f"escape CDG construction failed: {exc}",
        )
    if not cert.ok:
        return _unsupported(
            design, topo_label, pattern_name, scheme,
            f"not certified deadlock-free: {'; '.join(cert.reasons)}",
            cert.witness,
        )
    deterministic = _is_deterministic(network)

    # -- saturation via channel loads -----------------------------------------
    n = topo.num_nodes
    bw = float(cfg.link_bandwidth_flits)
    gen = [0.0] * n
    for src, dst, w in flows:
        gen[src] += w
    gen_rate = sum(gen) / n if n else 0.0

    loads: dict[str, float] = {}
    for node in range(n):
        if gen[node] > 0.0:
            loads[f"injection n{node}"] = gen[node]
    eject: dict[int, float] = {}
    for src, dst, w in flows:
        eject[dst] = eject.get(dst, 0.0) + w
    for node, w in sorted(eject.items()):
        loads[f"ejection n{node}"] = w

    if deterministic:
        link_load: dict[tuple[int, int], float] = {}
        for src, dst, w in sorted(flows):
            pkt = Packet(pid=0, src=src, dst=dst, length=1)
            node = src
            while node != dst:
                port = network.routing.escape_port(node, pkt)
                if port == LOCAL_PORT:
                    break
                link_load[(node, port)] = link_load.get((node, port), 0.0) + w
                nbr = topo.neighbor(node, port)
                assert nbr is not None
                node = nbr[0]
        for (node, port), w in sorted(link_load.items()):
            loads[f"link n{node}:{topo.port_label(port)}"] = w
    else:
        # Minimal adaptive: ideal capacity cut — total flit-hops per cycle
        # cannot exceed total directed-link bandwidth.
        demand = sum(w * topo.min_distance(s, d) for s, d, w in flows)
        capacity = len(topo.channels())
        if demand > 0.0:
            loads["ideal link capacity (sum w*dist / links)"] = demand / capacity

    if loads:
        bottleneck, peak = max(loads.items(), key=lambda kv: kv[1])
        sat_rate = bw / peak
    else:
        bottleneck, sat_rate = "no traffic", float("inf")
    sat_throughput = (
        sat_rate * gen_rate if sat_rate != float("inf") else float("inf")
    )

    assumptions = (
        f"longest packet Lmax = {cfg.max_packet_length} flits "
        f"({'deterministic escape routing' if deterministic else 'minimal adaptive routing'})",
        "throughput bound assumes the offered traffic mix; above "
        "saturation the accepted mix may shift",
    )
    return BoundsReport(
        design=design,
        topology=topo_label,
        pattern=pattern_name,
        scheme=scheme,
        supported=True,
        assumptions=assumptions,
        exempt_rings=dict(sorted(cert.exempt_rings.items())),
        saturation_injection_rate=sat_rate,
        saturation_throughput=sat_throughput,
        generation_rate=gen_rate,
        bottleneck=bottleneck,
    )


def compute_bounds(spec: "ScenarioSpec") -> BoundsReport:
    """Analytic bounds for a declarative scenario spec.

    Builds the network exactly as :func:`repro.sim.spec.prepare` would —
    but never constructs (or imports) the simulation engine.  Any
    configuration the registries or the schemes themselves refuse yields
    an explicit :class:`BoundsUnsupported` witness instead of an
    exception, mirroring the certifier's contract.
    """
    from ..experiments.designs import build_network
    from ..registry import parse_topology

    try:
        topology = parse_topology(spec.topology)
        network = build_network(
            spec.design, topology, spec.config, fc_params=dict(spec.fc_params)
        )
    except (ValueError, TypeError, NotImplementedError) as exc:
        return _unsupported(
            spec.design, spec.topology, spec.pattern, spec.design,
            f"configuration rejected by validation: {exc}",
        )
    return compute_network_bounds(
        network,
        spec.pattern,
        design_name=spec.design,
        topology_name=spec.topology,
    )


# -- validation harness -------------------------------------------------------


@dataclass(frozen=True)
class BoundsValidation:
    """Outcome of cross-checking one measurement against its bounds."""

    report: BoundsReport
    summary: "MeasurementSummary"
    injection_rate: float
    #: Strictly below the analytic saturation bound — the operating regime
    #: in which the throughput bound applies.
    below_saturation: bool
    #: Human-readable record of every comparison made (or skipped).
    checks: tuple[str, ...] = ()
    #: Violated bounds; empty means the measurement is consistent.
    violations: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def render(self) -> str:
        verdict = "CONSISTENT" if self.ok else "BOUND VIOLATION"
        lines = [
            f"{verdict}: {self.report.design} on {self.report.topology} "
            f"@ {self.injection_rate} flits/node/cycle"
        ]
        lines.extend(f"  {line}" for line in self.checks)
        lines.extend(f"  VIOLATION: {line}" for line in self.violations)
        return "\n".join(lines)


def validate_bounds(
    spec: "ScenarioSpec",
    *,
    summary: "MeasurementSummary | None" = None,
    store: Any = None,
) -> BoundsValidation:
    """Cross-check a measurement of ``spec`` against its analytic bounds.

    ``summary`` may be passed directly; otherwise the spec is executed
    through :func:`repro.sim.spec.execute`, which replays a matching
    :class:`~repro.sim.checkpoint.ResultStore` entry for free and only
    simulates when no cached result exists.

    Raises :class:`ValueError` when the spec has no analytic bounds —
    validate only what :func:`compute_bounds` supports.
    """
    report = compute_bounds(spec)
    if not report.supported:
        assert report.unsupported is not None
        raise ValueError(
            f"no analytic bounds for {spec.design} on {spec.topology}: "
            f"{report.unsupported.reason}"
        )
    if summary is None:
        from ..sim.spec import execute

        summary = execute(spec, store=store)

    checks: list[str] = []
    violations: list[str] = []
    bw = float(spec.config.link_bandwidth_flits)

    # Unconditional: accepted flits/node/cycle can never beat the per-node
    # ejection link, regardless of operating point.
    if summary.throughput <= bw:
        checks.append(
            f"throughput {summary.throughput:.4f} <= ejection capacity {bw:.4f}"
        )
    else:
        violations.append(
            f"throughput {summary.throughput:.4f} > ejection capacity {bw:.4f}"
        )

    below = spec.injection_rate < report.saturation_injection_rate
    if not below:
        checks.append(
            f"offered rate {spec.injection_rate} >= saturation bound "
            f"{report.saturation_injection_rate:.4f}: throughput "
            "bound not applicable at this operating point"
        )
    else:
        if summary.throughput <= report.saturation_throughput:
            checks.append(
                f"throughput {summary.throughput:.4f} <= saturation bound "
                f"{report.saturation_throughput:.4f}"
            )
        else:
            violations.append(
                f"throughput {summary.throughput:.4f} > saturation bound "
                f"{report.saturation_throughput:.4f}"
            )
    return BoundsValidation(
        report=report,
        summary=summary,
        injection_rate=spec.injection_rate,
        below_saturation=below,
        checks=tuple(checks),
        violations=tuple(violations),
    )
