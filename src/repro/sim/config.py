"""Simulation configuration.

:class:`SimulationConfig` gathers every knob of the simulated network in one
validated, immutable record.  The defaults mirror Table 1 of the paper:
a 2 GHz 4-stage wormhole router, 128-bit links, 1-flit short packets and
5-flit long packets, and 3-flit-deep virtual-channel buffers.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..network.switching import Switching

__all__ = ["SimulationConfig", "SHORT_PACKET_FLITS", "LONG_PACKET_FLITS", "NEVER"]

#: Sentinel wake cycle meaning "no future work" under the event-horizon
#: wake contract (see API.md).  An int (not ``inf``) so ``min`` over wake
#: cycles stays integer-typed; large enough to exceed any simulated time.
NEVER = 1 << 62

#: Length in flits of a short (control / request) packet: 16 B on a 128-bit link.
SHORT_PACKET_FLITS = 1
#: Length in flits of a long (data-carrying) packet: 64 B data + head flit.
LONG_PACKET_FLITS = 5


@dataclass(frozen=True)
class SimulationConfig:
    """All parameters of one simulated network instance.

    The switching/flow-control strategy itself is selected separately (see
    :mod:`repro.experiments.designs`); this record holds the structural and
    timing parameters shared by every design.  Frozen: a config aliased
    across sweep points can never be mutated behind a caller's back, and
    :class:`~repro.sim.spec.ScenarioSpec` hashing relies on immutability —
    derive variants with :func:`dataclasses.replace`.
    """

    #: Number of virtual channels per physical channel (escape + adaptive).
    num_vcs: int = 1
    #: Buffer depth of each virtual channel, in flits.
    buffer_depth: int = 3
    #: VCs used as escape resources (governed by the deadlock-avoidance rule).
    num_escape_vcs: int = 1
    #: Router pipeline delay charged to route computation, in cycles.
    routing_delay: int = 1
    #: Router pipeline delay charged to VC allocation, in cycles.
    vc_alloc_delay: int = 1
    #: Cycles for switch traversal plus link traversal (flit hop cost after SA).
    st_link_delay: int = 1
    #: Cycles for a credit to travel back upstream.
    credit_delay: int = 1
    #: Maximum flits accepted into the network per node per cycle (link width).
    link_bandwidth_flits: int = 1
    #: Length of the longest packet the workload may inject, in flits.
    max_packet_length: int = LONG_PACKET_FLITS
    #: Depth of the NIC source FIFO; ``None`` means unbounded (open loop).
    source_queue_depth: int | None = None
    #: Switching mode: wormhole-atomic (default), VCT, or non-atomic wormhole.
    switching: Switching = Switching.WORMHOLE_ATOMIC
    #: Enable the runtime invariant sanitizer (repro.analysis.sanitizer).
    #: ``REPRO_SANITIZE=1`` turns it on globally without touching configs;
    #: when off, nothing is registered on the engine (zero cost).
    sanitize: bool = False
    #: Cycles between the sanitizer's exhaustive deep checks; the
    #: conservation laws still run every cycle.
    sanitize_interval: int = 64

    def __post_init__(self) -> None:
        if self.num_vcs < 1:
            raise ValueError("num_vcs must be >= 1")
        if not 1 <= self.num_escape_vcs <= self.num_vcs:
            raise ValueError("num_escape_vcs must be in [1, num_vcs]")
        if self.buffer_depth < 1:
            raise ValueError("buffer_depth must be >= 1 flit")
        if self.max_packet_length < 1:
            raise ValueError("max_packet_length must be >= 1 flit")
        for name in ("routing_delay", "vc_alloc_delay"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.st_link_delay < 1:
            raise ValueError("st_link_delay must be >= 1 (a hop takes time)")
        if self.credit_delay < 0:
            raise ValueError("credit_delay must be >= 0")
        if self.sanitize_interval < 1:
            raise ValueError("sanitize_interval must be >= 1 cycle")
        if self.switching is Switching.VCT and self.buffer_depth < self.max_packet_length:
            raise ValueError(
                "VCT switching needs buffer_depth >= max_packet_length "
                f"({self.buffer_depth} < {self.max_packet_length})"
            )

    @property
    def num_adaptive_vcs(self) -> int:
        """VCs available as adaptive resources under Duato's protocol."""
        return self.num_vcs - self.num_escape_vcs

    @property
    def zero_load_hop_cycles(self) -> int:
        """Nominal per-hop pipeline latency of an uncontended head flit."""
        return self.routing_delay + self.vc_alloc_delay + 1 + self.st_link_delay
