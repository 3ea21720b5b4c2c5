"""Reference ARQ path: one stop-and-wait send per packet, frame by frame.

:meth:`repro.network.arq.ReliableLink.send_many` draws each unicast
packet's frames ahead and books runs of clean packets in bulk.  This
module is the plain path it must match: every packet goes through the
channel one frame at a time, builds its ACK, and books every counter,
clock step and histogram sample as it happens.  Slow by design; used
only by the tests.
"""

from __future__ import annotations

from repro.errors import RetryExhausted
from repro.network import arq
from repro.network.arq import (
    ACK_PAYLOAD_BYTES,
    ARQResult,
    ReliableLink,
    backoff_slots,
)
from repro.network.packet import BROADCAST, Packet, PayloadKind


def send(
    link: ReliableLink, packet: Packet, raise_on_failure: bool = False
) -> ARQResult:
    """Send one packet reliably; retransmit until ACKed or exhausted."""
    network = link.network
    if packet.header.dst == BROADCAST:
        pending = [n for n in network.node_ids if n != packet.header.src]
    else:
        pending = [packet.header.dst]
    link.stats.packets += 1
    tel = link.telemetry
    tel.inc("arq.packets")
    delivered: dict[int, int] = {}
    slot_ms = network.tdma.slot_ms()
    needed_retry = False
    attempts_used = 0
    acks: dict[int, Packet] = {}

    for attempt in range(1, arq.MAX_RETRIES + 2):
        attempts_used = attempt
        if attempt > 1:
            needed_retry = True
            link.stats.retransmissions += 1
            backoff_ms = backoff_slots(attempt - 1) * slot_ms
            link.stats.backoff_ms += backoff_ms
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
                outcomes = _attempt(link, packet, pending, acks)
        else:
            outcomes = _attempt(link, packet, pending, acks)
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
            link.stats.failed += 1
            tel.inc("arq.failed")
        else:
            link.stats.recovered += 1
            tel.inc("arq.recovered")
    else:
        link.stats.delivered_first_try += 1
        tel.inc("arq.delivered_first_try")
    tel.observe("arq.attempts", attempts_used)
    result = ARQResult(packet.header.seq, delivered, sorted(pending))
    if pending and raise_on_failure:
        raise RetryExhausted(
            packet.header.seq, arq.MAX_RETRIES + 1, sorted(pending)
        )
    return result


def _attempt(
    link: ReliableLink, packet: Packet, pending: list[int],
    acks: dict[int, Packet],
) -> dict[int, bool]:
    """One burst plus ACK round-trips: target -> acknowledged."""
    outcomes = link.network.transmit_to(packet, pending)
    return {
        target: outcome.received
        and _ack_roundtrip_ok(link, packet, target, acks)
        for target, outcome in outcomes.items()
    }


def _ack_roundtrip_ok(
    link: ReliableLink, packet: Packet, target: int, acks: dict[int, Packet]
) -> bool:
    """The receiver's ACK travelling back through the channel."""
    ack = acks.get(target)
    if ack is None:
        ack = acks[target] = Packet.build(
            target,
            packet.header.src,
            PayloadKind.CONTROL,
            packet.header.seq.to_bytes(ACK_PAYLOAD_BYTES, "big"),
            seq=packet.header.seq,
        )
    network = link.network
    airtime = network.tdma.packet_airtime_ms(len(ack.payload))
    network.stats.airtime_ms += airtime
    link.stats.acks_sent += 1
    link.stats.ack_airtime_ms += airtime
    tel = link.telemetry
    if tel.enabled:
        tel.inc("arq.acks_sent")
        tel.inc("arq.ack_airtime_ms", airtime)
        tel.advance_ms(airtime)
    received, _ = network.channel.transmit(ack)
    if received.intact:
        return True
    link.stats.acks_lost += 1
    tel.inc("arq.acks_lost")
    return False
