"""A functional simulator of the intra-SCALO wireless network.

Delivers packets between registered endpoints through a BER channel,
applying the paper's receive policy: packets with corrupted *hash*
payloads are dropped, corrupted *signal* payloads are delivered anyway
(DTW tolerates bit flips), and a corrupted header always drops the packet
since it cannot be routed (paper §3.4, §6.6).

Fault-injection hooks: endpoints can be :meth:`unregistered
<WirelessNetwork.unregister>` (a crashed implant) or put into a radio
outage (registered but deaf and mute).  Every transmit reports a
per-target :class:`DeliveryOutcome`, which is what the ARQ layer in
:mod:`repro.network.arq` builds on.  Bursts, deliveries, drops and
airtime are booked only as ``network.*`` counters in the telemetry
registry.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Callable

from repro.errors import NetworkError
from repro.network.channel import BitErrorChannel
from repro.network.packet import BROADCAST, Packet, PayloadKind
from repro.network.partition import PartitionMatrix
from repro.network.tdma import TDMAConfig
from repro.telemetry import NULL_TELEMETRY, TelemetryLike

#: Payload kinds that are dropped when their CRC fails.
DROP_ON_ERROR = {
    PayloadKind.HASHES,
    PayloadKind.FEATURES,
    PayloadKind.PARTIAL_RESULT,
    PayloadKind.QUERY,
    PayloadKind.QUERY_RESULT,
    PayloadKind.CLOCK_SYNC,
    PayloadKind.CONTROL,
    PayloadKind.RESYNC,
}


class DeliveryOutcome(enum.Enum):
    """What happened to one packet at one receiver."""

    DELIVERED = "delivered"
    DELIVERED_CORRUPTED = "delivered_corrupted"
    DROPPED_HEADER = "dropped_header"
    DROPPED_PAYLOAD = "dropped_payload"
    DROPPED_OUTAGE = "dropped_outage"
    DROPPED_PARTITION = "dropped_partition"

    @property
    def received(self) -> bool:
        """Did the receiver's application see the packet at all?"""
        return self in (
            DeliveryOutcome.DELIVERED,
            DeliveryOutcome.DELIVERED_CORRUPTED,
        )


Receiver = Callable[[Packet], None]


@dataclass
class WirelessNetwork:
    """Endpoints + channel + receive policy.

    Endpoints register a callback keyed by node id; :meth:`send` runs the
    channel per receiver (each receiver sees independent noise, as real
    radio links do); ``channel`` is a
    :class:`~repro.network.channel.BitErrorChannel` at the radio's BER.
    """

    tdma: TDMAConfig = field(default_factory=TDMAConfig)
    seed: int = 0
    channel: BitErrorChannel = field(init=False)
    _receivers: dict[int, Receiver] = field(init=False, default_factory=dict)
    #: Injectable observability handle and the medium's only ledger:
    #: bursts, deliveries, drops and airtime are ``network.*`` counters
    #: (retransmissions are the ARQ layer's ``arq.retries``).  The no-op
    #: default keeps the transmit path byte-identical to an
    #: uninstrumented run.
    telemetry: TelemetryLike = field(default=NULL_TELEMETRY, repr=False)

    def __post_init__(self) -> None:
        self.channel = BitErrorChannel(
            self.tdma.radio.bit_error_rate, self.seed
        )
        self._outages: set[int] = set()
        self._partition: PartitionMatrix | None = None

    def register(self, node_id: int, receiver: Receiver) -> None:
        if node_id in self._receivers:
            raise NetworkError(f"node {node_id} already registered")
        self._receivers[node_id] = receiver

    def unregister(self, node_id: int) -> Receiver:
        """Remove an endpoint (a crashed node); returns its old callback.

        Subsequent broadcasts simply skip the node; addressing it directly
        raises :class:`NetworkError` as for any unknown destination.
        """
        if node_id not in self._receivers:
            raise NetworkError(f"node {node_id} not registered")
        self._outages.discard(node_id)
        return self._receivers.pop(node_id)

    # -- radio outages ----------------------------------------------------------

    def set_outage(self, node_id: int, out: bool = True) -> None:
        """Put a registered node's radio into (or out of) an outage window.

        An outaged node stays registered but cannot hear or be heard:
        deliveries to or from it count as ``dropped_outage``.
        """
        if node_id not in self._receivers:
            raise NetworkError(f"node {node_id} not registered")
        if out:
            self._outages.add(node_id)
        else:
            self._outages.discard(node_id)

    def in_outage(self, node_id: int) -> bool:
        return node_id in self._outages

    # -- partitions -------------------------------------------------------------

    def set_partition(self, matrix: PartitionMatrix) -> None:
        """Install a link-level partition over the medium.

        Unlike an outage (one deaf node), a partition cuts *directed
        links*: a frame whose ``src -> dst`` link the matrix blocks is
        counted as ``dropped_partition`` at that receiver while other
        receivers of the same burst still hear it.  Installing a new
        matrix replaces any previous one (the plan layer nets
        heal+split within a round to exactly this call order).
        """
        self._partition = matrix

    def clear_partition(self) -> None:
        """Heal the fabric: every link carries again."""
        self._partition = None

    @property
    def partition(self) -> PartitionMatrix | None:
        return self._partition

    def can_reach(self, src: int, dst: int) -> bool:
        """Is the directed link usable right now (partition-wise)?

        Only consults the partition matrix — outages, crashes, and
        channel noise are separate concerns layered on top.  This is
        the primitive the round-trip liveness probes in
        :class:`~repro.faults.health.FleetBelief` query in both
        directions.
        """
        if self._partition is None:
            return True
        return self._partition.reachable(src, dst)

    def link_receiver(self, src: int, dst: int) -> Receiver | None:
        """``dst``'s receiver when a frame from ``src`` reaches the channel.

        ``None`` when ``dst`` is unknown, either end is in an outage, or
        the partition cuts the link: the cases :meth:`transmit_to` settles
        without a channel draw.
        """
        receiver = self._receivers.get(dst)
        if (
            receiver is None
            or src in self._outages
            or dst in self._outages
            or not self.can_reach(src, dst)
        ):
            return None
        return receiver

    @property
    def node_ids(self) -> list[int]:
        return sorted(self._receivers)

    # -- transmission -----------------------------------------------------------

    def send(self, packet: Packet) -> dict[int, DeliveryOutcome]:
        """Transmit a packet; deliveries follow the error policy.

        Returns the per-target outcomes (one entry per receiver for a
        broadcast).  Routing errors are raised before any counter is
        touched, so a rejected send leaves no phantom traffic behind.
        """
        if packet.header.src not in self._receivers:
            raise NetworkError(f"unknown source {packet.header.src}")
        if packet.header.dst == BROADCAST:
            targets = [n for n in self._receivers if n != packet.header.src]
        else:
            if packet.header.dst not in self._receivers:
                raise NetworkError(f"unknown destination {packet.header.dst}")
            targets = [packet.header.dst]
        return self.transmit_to(packet, targets)

    def transmit_to(
        self, packet: Packet, targets: list[int]
    ) -> dict[int, DeliveryOutcome]:
        """One on-air transmission towards an explicit target set.

        The ARQ layer uses this to retransmit to only the unacknowledged
        subset of a broadcast.  Each call is one radio burst: it spends one
        packet's airtime regardless of how many receivers listen.
        """
        tel = self.telemetry
        if tel.enabled:
            airtime_ms = self.tdma.packet_airtime_ms(len(packet.payload))
            tel.inc("network.packets_sent")
            tel.inc("network.airtime_ms", airtime_ms)
            tel.inc("network.payload_bytes", len(packet.payload))
            tel.advance_ms(airtime_ms)
        outcomes: dict[int, DeliveryOutcome] = {}
        src = packet.header.src
        src_dark = src in self._outages
        for target in targets:
            if target not in self._receivers:
                raise NetworkError(f"unknown destination {target}")
            if src_dark or target in self._outages:
                outcomes[target] = DeliveryOutcome.DROPPED_OUTAGE
                continue
            if not self.can_reach(src, target):
                outcomes[target] = DeliveryOutcome.DROPPED_PARTITION
                continue
            received, _ = self.channel.transmit(packet)
            if received is not packet and packet.trace is not None:
                # the channel reparses corrupted frames from wire bytes,
                # which strips the out-of-band trace context — re-attach
                received = replace(received, trace=packet.trace)
            outcomes[target] = self._deliver(target, received)
        if tel.enabled:
            for outcome in outcomes.values():
                if outcome is DeliveryOutcome.DELIVERED:
                    tel.inc("network.delivered")
                elif outcome is DeliveryOutcome.DELIVERED_CORRUPTED:
                    tel.inc("network.delivered", corrupted="true")
                else:
                    tel.inc(
                        "network.dropped",
                        reason=outcome.value.removeprefix("dropped_"),
                    )
        return outcomes

    def _deliver(self, target: int, packet: Packet) -> DeliveryOutcome:
        if not packet.header_ok:
            return DeliveryOutcome.DROPPED_HEADER
        outcome = DeliveryOutcome.DELIVERED
        if not packet.payload_ok:
            if packet.header.kind in DROP_ON_ERROR:
                return DeliveryOutcome.DROPPED_PAYLOAD
            outcome = DeliveryOutcome.DELIVERED_CORRUPTED
        self._receivers[target](packet)
        return outcome
