"""Network interface controller (NIC): source queue and ejection sink.

The NIC holds whole packets in a source FIFO; the packet at the head is
staged into the router's LOCAL input queue and then competes for VC and
switch allocation like any other input.  Ejection is a sink: the paper's
consumption assumption holds (the NIC always accepts delivered flits, one
per cycle through the LOCAL output port).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from .buffers import InputVC, VCState
from .flit import Packet

if TYPE_CHECKING:  # pragma: no cover
    from .network import Network

__all__ = ["NIC"]


class NIC:
    """Per-node packet source/sink."""

    def __init__(self, node: int, source_vcs: list[InputVC], network: Network):
        self.node = node
        self.source_vcs = source_vcs
        self.network = network
        self.queue: deque[Packet] = deque()
        self.packets_offered = 0
        self.packets_dropped = 0

    def offer(self, packet: Packet) -> bool:
        """Enqueue a packet for injection; False if a bounded queue is full."""
        if packet.length > self.network.config.max_packet_length:
            raise ValueError(
                f"packet {packet.pid} length {packet.length} exceeds the "
                f"configured max_packet_length "
                f"{self.network.config.max_packet_length}"
            )
        probes = self.network.probes
        depth = self.network.config.source_queue_depth
        if depth is not None and len(self.queue) >= depth:
            self.packets_dropped += 1
            if probes.active:
                probes.packet_offered(self.node, packet, False, packet.created_cycle)
            return False
        self.queue.append(packet)
        self.packets_offered += 1
        self.network.backlog_packets += 1
        self.network.note_nic_pending(self.node, True)
        if probes.active:
            probes.packet_offered(self.node, packet, True, packet.created_cycle)
        return True

    def load(self, cycle: int) -> None:
        """Stage the next queued packet into an idle LOCAL staging slot.

        One packet per cycle models the NI's serialization; with V VCs up to
        V packets can sit staged, arbitrating for injection concurrently.
        """
        if not self.queue:
            self.network.note_nic_pending(self.node, False)
            return
        for slot in self.source_vcs:
            if slot.state is VCState.IDLE:
                packet = self.queue.popleft()
                for flit in packet.make_flits():
                    slot.push(flit)
                slot.owner = packet
                slot.stage_ready = cycle + self.network.config.routing_delay
                slot.state = VCState.ROUTING
                probes = self.network.probes
                if probes.active:
                    probes.packet_staged(self.node, packet, cycle)
                if not self.queue:
                    self.network.note_nic_pending(self.node, False)
                return

    @property
    def backlog(self) -> int:
        """Packets waiting at this node (staged packets included)."""
        staged = sum(1 for slot in self.source_vcs if slot.owner is not None)
        return len(self.queue) + staged

    # -- checkpoint/restore ---------------------------------------------------

    def snapshot_state(self) -> dict:
        return {
            "queue": list(self.queue),
            "packets_offered": self.packets_offered,
            "packets_dropped": self.packets_dropped,
        }

    def restore_state(self, state: dict) -> None:
        self.queue = deque(state["queue"])
        self.packets_offered = state["packets_offered"]
        self.packets_dropped = state["packets_dropped"]
