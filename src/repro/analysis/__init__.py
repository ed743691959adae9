"""Static analysis and runtime verification for the simulator.

Three coordinated passes, all rooted in the paper's correctness story:

- :mod:`repro.analysis.certify` — a **static deadlock-freedom certifier**.
  It builds the escape-channel dependency graph (CDG) of a (topology,
  routing, flow-control) triple, runs an iterative Tarjan SCC pass, and
  certifies the configuration deadlock-free (or rejects it with a concrete
  witness cycle).  This is Theorem 1 turned into a checkable artifact:
  bubble-style schemes (WBFC, CBS, localized BFC) discharge each ring's
  internal cycle via their surviving-bubble guarantee, Dateline via its
  low/high class split, and the unrestricted control discharges nothing —
  its cyclic CDG is exactly why it deadlocks dynamically.

- :mod:`repro.analysis.sanitizer` — a **runtime invariant sanitizer**: an
  opt-in (``SimulationConfig.sanitize`` / ``REPRO_SANITIZE=1``),
  zero-cost-when-off checker hooked into the simulation engine that
  validates the paper's conservation laws (one gray worm-bubble per ring,
  black-token/CI/CH accounting), credit conservation per link, atomic
  allocation exclusivity, and — sampled every N cycles — that the O(1)
  active-set and occupancy counters match an exhaustive recount.

- :mod:`repro.analysis.lint` — a **determinism lint**: an AST pass over
  ``src/repro`` that forbids direct ``random``/``time`` use outside
  ``repro.sim.rng``, unordered-``set`` iteration in the cycle kernel,
  identity-keyed ``dict`` iteration in the cycle kernel, and mutable
  default arguments.

- :mod:`repro.analysis.bounds` — an **analytic bound engine**: a
  channel-load saturation-throughput bound derived from any
  :class:`~repro.sim.spec.ScenarioSpec` the certifier accepts, without
  constructing a simulator, plus a validation harness that cross-checks
  any measurement (cached or fresh) against that bound.

CLI::

    python -m repro.analysis certify WBFC-1VC --topology torus:4x4
    python -m repro.analysis certify UNRESTRICTED-1VC --expect-reject
    python -m repro.analysis bounds WBFC-1VC --topology torus:8x8 --json
    python -m repro.analysis.lint src/repro
"""

from .bounds import (
    BoundsReport,
    BoundsUnsupported,
    BoundsValidation,
    compute_bounds,
    compute_network_bounds,
    validate_bounds,
)
from .certify import Certificate, certify, certify_network
from .cdg import ChannelDependencyGraph, EscapeChannel, build_cdg
from .sanitizer import InvariantSanitizer, SanitizerError
from .scc import find_cycle, strongly_connected_components

__all__ = [
    "BoundsReport",
    "BoundsUnsupported",
    "BoundsValidation",
    "compute_bounds",
    "compute_network_bounds",
    "validate_bounds",
    "Certificate",
    "certify",
    "certify_network",
    "ChannelDependencyGraph",
    "EscapeChannel",
    "build_cdg",
    "InvariantSanitizer",
    "SanitizerError",
    "find_cycle",
    "strongly_connected_components",
]
