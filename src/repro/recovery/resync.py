"""Bounded anti-entropy resync for a rebooted implant.

While a node is down it misses its peers' hash broadcasts, and its own
final batches may never have gone on air.  After journal replay the
node runs one bounded reconciliation round:

* **pull** — it sends each alive peer a RESYNC request naming a window
  range; the peer answers with its stored hash batches in that range
  (as ordinary HASHES packets, one per window, ``seq = window``);
* **push** — it re-broadcasts its own stored batches in the same range,
  so peers recover anything it ingested but never exchanged.

Everything travels over the system's normal transport (the ARQ
:class:`~repro.network.arq.ReliableLink` when configured, else the raw
network), spending honest airtime.  Peers that already heard a batch
suppress the duplicate at the link layer when the original broadcast
used ``seq = window`` — otherwise the application sees a redelivery,
which the collision-check path tolerates (CCHECK against an existing
store is idempotent).  The range and per-peer batch cap bound the
protocol: resync cost is O(window range), not O(downtime).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import StorageError
from repro.network.packet import (
    BROADCAST,
    MAX_PAYLOAD_BYTES,
    Packet,
    PayloadKind,
)

if TYPE_CHECKING:
    from repro.core.system import ScaloSystem

#: RESYNC request payload: window_lo, window_hi, max batches (LE).
REQUEST = struct.Struct("<IIH")

#: Windows a rebooted node pulls below its replayed high-water mark,
#: and past it (:meth:`~repro.core.system.ScaloSystem.recover_node`).
RESYNC_HORIZON = 8
#: Stored batches one peer serves per request, and the node pushes.
RESYNC_MAX_BATCHES = 64


@dataclass
class ResyncReport:
    """What one anti-entropy round moved."""

    node: int
    window_lo: int
    window_hi: int
    peers: list[int] = field(init=False, default_factory=list)
    batches_pulled: int = field(init=False, default=0)
    batches_pushed: int = field(init=False, default=0)


def _deliver(system: "ScaloSystem", packet: Packet) -> bool:
    """Send through the system transport; True if any target received."""
    if system.link is not None:
        return bool(system.link.send(packet).delivered)
    outcomes = system.network.send(packet)
    return any(outcome.received for outcome in outcomes.values())


def _pack_batch(system: "ScaloSystem", node_id: int, window: int):
    """Read + pack one stored batch; None when unreadable/oversized."""
    storage = system.nodes[node_id].storage
    try:
        signatures = storage.read_hash_batch(window)
    except StorageError:
        return None  # rotted beyond ECC — this copy is lost
    payload = b"".join(system.lsh.pack(sig) for sig in signatures)
    if len(payload) > MAX_PAYLOAD_BYTES:
        return None
    return payload


def resync_node(
    system: "ScaloSystem",
    node_id: int,
    window_lo: int,
    window_hi: int,
) -> ResyncReport:
    """Run one pull+push anti-entropy round for a rebooted node."""
    tel = system.telemetry
    report = ResyncReport(node_id, window_lo, window_hi)
    report.peers = [p for p in system.alive_node_ids if p != node_id]
    if window_hi <= window_lo or not report.peers:
        return report
    request_payload = REQUEST.pack(window_lo, window_hi, RESYNC_MAX_BATCHES)

    for peer in report.peers:
        with tel.span("resync", node=node_id, peer=peer):
            seq = system._next_resync_seq()
            request = Packet.build(
                node_id, peer, PayloadKind.RESYNC, request_payload,
                seq=seq, trace=tel.current_context(),
            )
            tel.inc("recovery.resync_requests")
            if not _deliver(system, request):
                tel.inc("recovery.resync_failed_peers")
                continue
            # the peer's MC services the request it just received
            inbox = system._inboxes[peer]
            system._inboxes[peer] = [
                p for p in inbox
                if not (
                    p.header.kind == PayloadKind.RESYNC
                    and p.header.src == node_id
                )
            ]
            served = sorted(
                w
                for w in system.nodes[peer].storage.stored_hash_windows()
                if window_lo <= w < window_hi
            )[:RESYNC_MAX_BATCHES]
            for window in served:
                payload = _pack_batch(system, peer, window)
                if payload is None:
                    tel.inc("recovery.resync_skipped")
                    continue
                batch = Packet.build(
                    peer, node_id, PayloadKind.HASHES, payload,
                    seq=window & 0xFFFF, time_ticks=window & 0xFFFFFFFF,
                    trace=tel.current_context(),
                )
                if _deliver(system, batch):
                    report.batches_pulled += 1
                    tel.inc("recovery.resync_batches_pulled")

    # push: re-broadcast own batches the fleet may have missed
    own = sorted(
        w
        for w in system.nodes[node_id].storage.stored_hash_windows()
        if window_lo <= w < window_hi
    )[:RESYNC_MAX_BATCHES]
    if own:
        with tel.span("resync-push", node=node_id, batches=len(own)):
            for window in own:
                payload = _pack_batch(system, node_id, window)
                if payload is None:
                    tel.inc("recovery.resync_skipped")
                    continue
                batch = Packet.build(
                    node_id, BROADCAST, PayloadKind.HASHES, payload,
                    seq=window & 0xFFFF, time_ticks=window & 0xFFFFFFFF,
                    trace=tel.current_context(),
                )
                if _deliver(system, batch):
                    report.batches_pushed += 1
                    tel.inc("recovery.resync_batches_pushed")
    return report
