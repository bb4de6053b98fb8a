"""UDP-like datagram sockets.

scAtteR uses UDP end-to-end (§3.1): no retransmission, no ordering
guarantees beyond FIFO links, and receivers that are busy simply never
see dropped packets.  A socket owns a receive queue (a FIFO
:class:`~repro.sim.resources.Store`) that service processes block on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.net.addresses import Address
from repro.net.topology import Network
from repro.sim.kernel import Waitable
from repro.sim.resources import Store


@dataclass(slots=True)
class Datagram:
    """A received packet: payload plus addressing metadata.

    Slotted: one is allocated per send on the hot path, and the slot
    layout keeps that allocation (and attribute access) cheap.
    """

    payload: object
    size_bytes: int
    src: Address
    dst: Address


#: Wire size of a health probe/ack packet (a UDP ping with a header).
HEALTH_WIRE_BYTES = 128


@dataclass(frozen=True, slots=True)
class HealthProbe:
    """Control-plane liveness probe sent by the failure detector.

    Probes ride the same datagram network as frames, so a partition or
    blackholed address silences them exactly like application traffic —
    which is what lets the detector *discover* failures instead of
    being told about them.
    """

    seq: int
    reply_to: Address
    sent_s: float


@dataclass(frozen=True, slots=True)
class HealthAck:
    """A service instance's reply to a :class:`HealthProbe`."""

    seq: int
    instance: Address
    probe_sent_s: float


class DatagramSocket:
    """An unreliable, connectionless socket bound to one address."""

    def __init__(self, network: Network, address: Address,
                 recv_capacity: Optional[int] = None):
        self.network = network
        self.address = address
        self._queue = Store(network.sim, capacity=recv_capacity)
        self.rx_count = 0
        self.rx_dropped_full = 0
        network.bind(address, self._on_delivery)

    def close(self) -> None:
        self.network.unbind(self.address)

    def _on_delivery(self, datagram: Datagram) -> None:
        self.rx_count += 1
        if not self._queue.offer(datagram):
            # Receive buffer overflow: kernel drops the packet, exactly
            # like an overrun UDP socket buffer.
            self.rx_dropped_full += 1

    def sendto(self, dst: Address, payload: object, size_bytes: int) -> bool:
        """Fire-and-forget send; returns in-network survival (UDP lies
        to no one here, but real callers must not rely on it)."""
        datagram = Datagram(payload=payload, size_bytes=size_bytes,
                            src=self.address, dst=dst)
        return self.network.send(self.address.node, dst, datagram,
                                 size_bytes)

    def recv(self) -> Waitable:
        """Waitable firing with the next :class:`Datagram` (FIFO)."""
        return self._queue.get()

    @property
    def pending(self) -> int:
        return len(self._queue)
