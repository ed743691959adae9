"""Open-loop synthetic traffic generation.

Each node injects packets as a Bernoulli process whose per-cycle packet
probability realizes a target *flit* injection rate (flits/node/cycle),
matching the x-axis of the paper's latency-throughput figures.
"""

from __future__ import annotations

import numpy as np

from ..network.flit import Packet
from ..network.network import Network
from ..sim.rng import make_rng
from .lengths import BimodalLength, LengthDistribution
from .patterns import TrafficPattern

__all__ = ["SyntheticTraffic"]


class SyntheticTraffic:
    """Bernoulli open-loop workload over a traffic pattern.

    Implements the event-horizon wake contract (see API.md):
    :meth:`next_active_cycle` tells the engine the first cycle of a
    quiescent span at which an injection can occur.  It draws the very
    same per-cycle Bernoulli vectors :meth:`step` would have drawn, so a
    skipped span consumes the RNG stream identically and the run stays
    bit-identical to a ticked one.
    """

    def __init__(
        self,
        pattern: TrafficPattern,
        injection_rate: float,
        lengths: LengthDistribution | None = None,
        seed: int = 1,
    ):
        if injection_rate < 0:
            raise ValueError("injection_rate must be >= 0 flits/node/cycle")
        self.pattern = pattern
        self.injection_rate = injection_rate
        self.lengths = lengths if lengths is not None else BimodalLength()
        self.rng = make_rng(seed)
        self._next_pid = 0
        self.packets_created = 0
        #: Probability a node starts a packet on a given cycle.
        self.packet_probability = injection_rate / self.lengths.mean
        #: Bernoulli row pre-drawn by ``next_active_cycle`` for the wake
        #: cycle the engine is about to tick: ``(cycle, start_indices)``.
        self._stash: tuple[int, np.ndarray] | None = None

    def step(self, cycle: int, network: Network) -> None:
        # RNG-stream-position contract: every ticked cycle consumes exactly
        # one Bernoulli row (plus per-packet destination/length draws), in
        # cycle order.  Both engine backends (object, soa) call this
        # same method once per ticked cycle and ``next_active_cycle`` over
        # skipped spans, so a mid-run backend handoff resumes at the
        # identical stream position.
        if self.packet_probability <= 0:
            return
        stash = self._stash
        if stash is not None:
            self._stash = None
            if stash[0] != cycle:
                raise RuntimeError(
                    f"stashed injection row for cycle {stash[0]} was never "
                    f"consumed (step called at cycle {cycle}); the engine "
                    "must tick the cycle next_active_cycle returned"
                )
            starts = stash[1]
        else:
            n = network.topology.num_nodes
            starts = np.nonzero(self.rng.random(n) < self.packet_probability)[0]
        for src in starts:
            src = int(src)
            dst = self.pattern.dest(src, self.rng)
            if dst is None:
                continue
            pid = self._next_pid
            self._next_pid = pid + 1
            packet = Packet(
                pid=pid,
                src=src,
                dst=dst,
                length=self.lengths.draw(self.rng),
                created_cycle=cycle,
            )
            network.nics[src].offer(packet)
            self.packets_created += 1

    def next_active_cycle(self, start: int, end: int, network: Network) -> int:
        """First cycle in ``[start, end)`` at which :meth:`step` may inject.

        Returns ``end`` when the whole span is provably silent.  When a
        hit is found its Bernoulli row is stashed for the ``step`` call at
        the returned cycle, keeping the RNG stream order exactly as if
        every cycle had been ticked.
        """
        if self.packet_probability <= 0:
            return end
        if self._stash is not None:
            # A row is already pending (run_until handed control back at
            # this wake point); the engine must tick its cycle before any
            # further span can open.
            return self._stash[0]
        n = network.topology.num_nodes
        p = self.packet_probability
        rng_random = self.rng.random
        for cycle in range(start, end):
            row = rng_random(n)
            starts = np.nonzero(row < p)[0]
            if starts.size:
                self._stash = (cycle, starts)
                return cycle
        return end

    def stop(self) -> None:
        """Stop offering new packets (the drain phase of a measurement)."""
        self.packet_probability = 0.0
        self._stash = None

    # -- checkpoint/restore ---------------------------------------------------

    def snapshot_state(self) -> dict:
        return {
            "rng": self.rng.bit_generator.state,
            "next_pid": self._next_pid,
            "packets_created": self.packets_created,
            "packet_probability": self.packet_probability,
            # Pending when run_until's predicate fired at a wake cycle the
            # engine has not ticked yet; part of the RNG stream contract.
            "stash": self._stash,
        }

    def restore_state(self, state: dict) -> None:
        self.rng.bit_generator.state = state["rng"]
        self._next_pid = state["next_pid"]
        self.packets_created = state["packets_created"]
        self.packet_probability = state["packet_probability"]
        self._stash = state.get("stash")
