"""Sequence-tracked ACK/NACK ARQ over the intra-SCALO network.

The base receive policy silently drops hash-class packets whose CRC
fails (paper §3.4).  That is the right *per-packet* policy, but a
resilient deployment must eventually get the hashes through:
:class:`ReliableLink` adds a stop-and-wait ARQ on top of
:class:`~repro.network.network.WirelessNetwork` — after each burst the
receiver returns a short CONTROL-kind acknowledgement through the same
noisy channel, and unacknowledged targets are retransmitted with a
bounded retry budget and a backoff expressed in TDMA slots.

Accounting is honest: every retransmission and every ACK spends real
airtime in the network's :class:`~repro.network.network.DeliveryStats`,
so throughput numbers measured above this layer include the recovery
overhead.  Receivers attached through :meth:`ReliableLink.attach` are
wrapped with per-(src, seq) duplicate suppression, because a lost ACK
makes the sender retransmit a packet the application already saw.

Observability: the link shares the network's injectable telemetry
handle.  Every counter in :class:`ARQStats` is mirrored into the metrics
registry under the ``arq.*`` namespace (``arq.retries``,
``arq.acks_lost``, ``arq.backoff_ms``, the ``arq.attempts`` histogram),
and each retransmission opens an ``arq-retry`` span covering its backoff
and burst, so recovery cost shows up inside the owning query's trace.

Cost: at the Fig. 12 BERs almost every packet crosses clean on the first
try.  :meth:`ReliableLink.send_many` is the one send path (:meth:`~
ReliableLink.send` hands it one packet).  It draws each unicast packet's
data and ACK frames ahead, books a run of clean packets in bulk, and
sends only the others through the per-frame stop-and-wait path.  Stats,
registry counters and key order, the clock, the ``arq.attempts``
histogram, the dedup memory and the deliveries all end as one per-frame
send per packet leaves them; ``tests/arq_oracle.py`` keeps that loop as
the reference.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.errors import RetryExhausted
from repro.network.network import Receiver, WirelessNetwork
from repro.network.packet import (
    BROADCAST,
    MAX_PAYLOAD_BYTES,
    Packet,
    PayloadKind,
)
from repro.telemetry import TelemetryLike

#: ACK payload: the acknowledged sequence number, big-endian.
ACK_PAYLOAD_BYTES = 2


#: Retransmissions per packet; a send makes at most ``1 + MAX_RETRIES``
#: attempts.
MAX_RETRIES = 4
#: TDMA slots waited before the first retry; the wait doubles per retry
#: (1, 2, 4, ... slots), the classic congestion-friendly schedule.
BACKOFF_SLOTS = 1
#: Duplicate-suppression memory per receiver set: an entry is evicted
#: once this many newer packets have been accepted since it was last
#: seen, so long fault sweeps hold bounded memory.  The window only
#: needs to exceed the deepest plausible retransmission reordering.
DEDUP_WINDOW = 4096

#: Registry counters one clean send touches, in its order: up to the
#: receiver's call, and after it.
_CLEAN_KEYS_BEFORE_DELIVERY = (
    "arq.packets", "network.packets_sent", "network.airtime_ms",
    "network.payload_bytes",
)
_CLEAN_KEYS_AFTER_DELIVERY = (
    "network.delivered", "arq.acks_sent", "arq.ack_airtime_ms",
    "arq.delivered_first_try",
)


def backoff_slots(retry: int) -> int:
    """Slots waited before retry number ``retry`` (1-based)."""
    if retry < 1:
        return 0
    return BACKOFF_SLOTS * (1 << (retry - 1))


@dataclass
class ARQStats:
    """Counters for one reliable link's lifetime."""

    packets: int = 0
    delivered_first_try: int = 0
    recovered: int = 0
    failed: int = 0
    retransmissions: int = 0
    acks_sent: int = 0
    acks_lost: int = 0
    duplicates_suppressed: int = 0
    dedup_evictions: int = 0
    ack_airtime_ms: float = 0.0
    backoff_ms: float = 0.0


@dataclass
class ARQResult:
    """Outcome of one reliable send."""

    seq: int
    delivered: dict[int, int]  # target -> attempts needed
    failed: list[int]

    @property
    def ok(self) -> bool:
        return not self.failed

    @property
    def attempts(self) -> int:
        return max(self.delivered.values(), default=0)


@dataclass
class ReliableLink:
    """Stop-and-wait ARQ endpoint manager over one wireless network."""

    network: WirelessNetwork
    stats: ARQStats = field(default_factory=ARQStats)

    def __post_init__(self) -> None:
        # (src, dst, kind, seq) already handed to the application; kind is
        # part of the key because sequence spaces are per payload stream
        # (a HASHES seq=0 must not suppress a later QUERY seq=0).  Values
        # are accept ticks: the OrderedDict is an LRU bounded by
        # DEDUP_WINDOW, so long sweeps hold O(window) memory.
        self._seen: OrderedDict[tuple[int, int, PayloadKind, int], int] = (
            OrderedDict()
        )
        self._accept_tick = 0

    @property
    def telemetry(self) -> TelemetryLike:
        """The link reports into its network's telemetry handle."""
        return self.network.telemetry

    # -- receive side -----------------------------------------------------------

    def attach(self, node_id: int, receiver: Receiver) -> None:
        """Register an endpoint behind duplicate suppression."""

        def deduped(packet: Packet, _dst: int = node_id) -> None:
            key = (
                packet.header.src, _dst, packet.header.kind,
                packet.header.seq,
            )
            if key in self._seen:
                # a live stream stays resident: refresh on every hit
                self._seen[key] = self._accept_tick
                self._seen.move_to_end(key)
                self.stats.duplicates_suppressed += 1
                self.telemetry.inc("arq.duplicates_suppressed")
                return
            self._accept_tick += 1
            self._seen[key] = self._accept_tick
            while (
                self._seen
                and self._accept_tick - next(iter(self._seen.values()))
                >= DEDUP_WINDOW
            ):
                self._seen.popitem(last=False)
                self.stats.dedup_evictions += 1
            receiver(packet)

        self.network.register(node_id, deduped)

    def forget(self, node_id: int) -> None:
        """Drop a receiver's dedup memory (its SRAM died with it).

        Called when a node crashes: after the reboot the resync path may
        legitimately redeliver batches the old incarnation had seen.
        """
        self._seen = OrderedDict(
            (key, tick) for key, tick in self._seen.items()
            if key[1] != node_id
        )

    # -- transmit side ----------------------------------------------------------

    def _ack_roundtrip_ok(
        self, packet: Packet, target: int, acks: dict[int, Packet]
    ) -> bool:
        """Model the receiver's ACK travelling back through the channel.

        The ACK is a minimal CONTROL packet; if it arrives corrupted the
        sender must assume loss (a NACK by timeout) and retransmit.  Its
        airtime lands in the network stats like any other transmission.
        ``acks`` holds the ACK each target has built for this send, so a
        retry re-sends the same frame instead of building it again.
        """
        ack = acks.get(target)
        if ack is None:
            ack = acks[target] = Packet.build(
                target,
                packet.header.src,
                PayloadKind.CONTROL,
                packet.header.seq.to_bytes(ACK_PAYLOAD_BYTES, "big"),
                seq=packet.header.seq,
            )
        airtime = self.network.tdma.packet_airtime_ms(len(ack.payload))
        self.network.stats.airtime_ms += airtime
        self.stats.acks_sent += 1
        self.stats.ack_airtime_ms += airtime
        tel = self.telemetry
        if tel.enabled:
            tel.inc("arq.acks_sent")
            tel.inc("arq.ack_airtime_ms", airtime)
            tel.advance_ms(airtime)
        received, _ = self.network.channel.transmit(ack)
        if received.intact:
            return True
        self.stats.acks_lost += 1
        tel.inc("arq.acks_lost")
        return False

    def send(self, packet: Packet, raise_on_failure: bool = False) -> ARQResult:
        """Send one packet reliably: :meth:`send_many` with one packet."""
        return self.send_many([packet], raise_on_failure)[0]

    def send_many(
        self, packets: Sequence[Packet], raise_on_failure: bool = False
    ) -> list[ARQResult]:
        """Send packets in order, each retransmitted until ACKed or exhausted.

        Every ledger, draw and delivery is what one stop-and-wait send per
        packet leaves.  Each intact unicast packet on an open link first
        asks the channel whether its data and ACK frames cross clean
        (:meth:`~repro.network.channel.BitErrorChannel.passes_clean`); a
        run of such packets is booked in bulk, and every other packet
        takes the per-frame path, which spends the draws the check made.
        A run's receivers are called when the run ends, so they must not
        send on the network or change its links.

        Raises:
            RetryExhausted: when ``raise_on_failure`` and at least one
                target of a packet never acknowledged within the retry
                budget; later packets are not sent.
            NetworkError: on routing errors (unknown source/destination),
                exactly as :meth:`WirelessNetwork.send`.
        """
        channel = self.network.channel
        results: list[ARQResult] = []
        run: list[tuple[Packet, Receiver]] = []
        for packet in packets:
            receiver = self._clean_receiver(packet)
            if receiver is not None and channel.passes_clean(
                (len(packet.payload), ACK_PAYLOAD_BYTES)
            ):
                run.append((packet, receiver))
                continue
            if run:
                results.extend(self._book_clean(run))
                run = []
            results.append(self._send_one(packet, raise_on_failure))
        if run:
            results.extend(self._book_clean(run))
        return results

    def _clean_receiver(self, packet: Packet) -> Receiver | None:
        """The receiver of an intact unicast packet on an open link."""
        header = packet.header
        if (
            header.dst == BROADCAST
            or len(packet.payload) > MAX_PAYLOAD_BYTES
            or not packet.intact
        ):
            return None
        return self.network.link_receiver(header.src, header.dst)

    def _book_clean(
        self, run: list[tuple[Packet, Receiver]]
    ) -> list[ARQResult]:
        """Book packets whose data and ACK frames crossed clean.

        Each receiver runs in order with the clock at its packet's
        arrival; float sums (airtime, the clock) add one frame at a time,
        data and ACK interleaved, and registry keys are created in the
        order one clean send touches them.
        """
        network = self.network
        tdma = network.tdma
        ack_ms = tdma.packet_airtime_ms(ACK_PAYLOAD_BYTES)
        data_ms = [tdma.packet_airtime_ms(len(p.payload)) for p, _ in run]
        tel = self.telemetry
        live = tel.enabled
        if live:
            for name in _CLEAN_KEYS_BEFORE_DELIVERY:
                tel.inc(name, 0.0)
        airtime = network.stats.airtime_ms
        ack_airtime = self.stats.ack_airtime_ms
        results: list[ARQResult] = []
        for (packet, receiver), data in zip(run, data_ms):
            airtime += data
            if live:
                tel.advance_ms(data)
            receiver(packet)
            if live and not results:
                for name in _CLEAN_KEYS_AFTER_DELIVERY:
                    tel.inc(name, 0.0)
            airtime += ack_ms
            ack_airtime += ack_ms
            if live:
                tel.advance_ms(ack_ms)
            header = packet.header
            results.append(ARQResult(header.seq, {header.dst: 1}, []))
        n = len(run)
        network.stats.sent += n
        network.stats.delivered += n
        network.stats.airtime_ms = airtime
        stats = self.stats
        stats.packets += n
        stats.acks_sent += n
        stats.delivered_first_try += n
        stats.ack_airtime_ms = ack_airtime
        if live:
            registry = tel.registry
            for name in ("arq.packets", "network.packets_sent",
                         "network.delivered", "arq.acks_sent",
                         "arq.delivered_first_try"):
                tel.inc(name, n)
            tel.inc("network.payload_bytes",
                    sum(len(p.payload) for p, _ in run))
            registry.inc_each("network.airtime_ms", data_ms)
            registry.inc_each("arq.ack_airtime_ms", [ack_ms] * n)
            tel.observe("arq.attempts", 1, n=n)
        return results

    def _send_one(self, packet: Packet, raise_on_failure: bool) -> ARQResult:
        """The per-frame stop-and-wait path for one packet."""
        if packet.header.dst == BROADCAST:
            pending = [
                n for n in self.network.node_ids if n != packet.header.src
            ]
        else:
            pending = [packet.header.dst]
        self.stats.packets += 1
        tel = self.telemetry
        tel.inc("arq.packets")
        delivered: dict[int, int] = {}
        slot_ms = self.network.tdma.slot_ms()
        needed_retry = False
        attempts_used = 0
        acks: dict[int, Packet] = {}

        for attempt in range(1, MAX_RETRIES + 2):
            attempts_used = attempt
            if attempt > 1:
                needed_retry = True
                self.stats.retransmissions += 1
                backoff_ms = backoff_slots(attempt - 1) * slot_ms
                self.stats.backoff_ms += backoff_ms
                if tel.enabled:
                    tel.inc("arq.retries")
                    tel.inc("arq.backoff_ms", backoff_ms)
                    tel.advance_ms(backoff_ms)
                with tel.span(
                    "arq-retry",
                    trace=packet.trace,
                    seq=packet.header.seq,
                    attempt=attempt,
                    pending=len(pending),
                ):
                    outcomes = self._attempt(packet, pending, acks)
            else:
                outcomes = self._attempt(packet, pending, acks)
            still_pending: list[int] = []
            for target, acked in outcomes.items():
                if acked:
                    delivered[target] = attempt
                else:
                    still_pending.append(target)
            pending = still_pending
            if not pending:
                break

        if needed_retry:
            if pending:
                self.stats.failed += 1
                tel.inc("arq.failed")
            else:
                self.stats.recovered += 1
                tel.inc("arq.recovered")
        else:
            self.stats.delivered_first_try += 1
            tel.inc("arq.delivered_first_try")
        tel.observe("arq.attempts", attempts_used)
        result = ARQResult(packet.header.seq, delivered, sorted(pending))
        if pending and raise_on_failure:
            raise RetryExhausted(
                packet.header.seq, MAX_RETRIES + 1, sorted(pending)
            )
        return result

    def _attempt(
        self, packet: Packet, pending: list[int], acks: dict[int, Packet]
    ) -> dict[int, bool]:
        """One burst plus ACK round-trips: target -> acknowledged."""
        outcomes = self.network.transmit_to(packet, pending)
        return {
            target: outcome.received
            and self._ack_roundtrip_ok(packet, target, acks)
            for target, outcome in outcomes.items()
        }
