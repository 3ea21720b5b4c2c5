"""Resilience evaluation: Fig. 12 extended with recovery under ARQ.

Fig. 12 reports how many hash packets the BER channel destroys; this
module asks the follow-up question the resilience layer exists to
answer: *how many of those losses does the ARQ win back, and what does
the recovery cost in airtime?*  :func:`arq_recovery` runs one BER point;
:func:`resilience_sweep` produces the recovery-rate-vs-BER curve.

:func:`crash_query_degradation` exercises the other half of the fault
model: an N-node :class:`~repro.core.system.ScaloSystem` loses an
implant mid-session and interactive queries keep answering over the
survivors, tagged degraded.  :func:`crash_recovery_coverage` continues
that story through the recovery layer: the crashed node reboots via
journal replay + scrub + anti-entropy resync, rejoins the ingest
schedule, and the same Q3 query comes back at full coverage.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.apps.queries import DistributedQueryResult, QuerySpec
from repro.core.system import ScaloSystem
from repro.eval.network_errors import BER_POINTS, HASH_PAYLOAD_BYTES
from repro.network.arq import ReliableLink
from repro.network.network import WirelessNetwork
from repro.network.packet import Packet, PayloadKind
from repro.network.radio import LOW_POWER
from repro.network.tdma import TDMAConfig
from repro.telemetry import Telemetry

#: The recovery curve's BERs: Fig. 12's x-axis plus 1e-3.
SWEEP_BERS = (1e-3, *BER_POINTS)

#: The crash scenarios' fleet: electrodes per implant, windows ingested,
#: the implant that crashes, the windows ingested before it does, and
#: the seed.
CRASH_ELECTRODES = 4
CRASH_WINDOWS = 6
CRASH_NODE = 1
CRASH_AFTER = 3
CRASH_SEED = 0


@dataclass
class ResilienceResult:
    """One BER point of the ARQ recovery curve."""

    ber: float
    packets: int
    first_try: int
    recovered: int
    unrecovered: int
    retransmissions: int
    data_airtime_ms: float
    ack_airtime_ms: float
    backoff_ms: float

    @property
    def initial_loss_pct(self) -> float:
        """Fig. 12's number: packets the first transmission lost."""
        return 100.0 * (self.packets - self.first_try) / self.packets

    @property
    def recovery_rate_pct(self) -> float:
        """Of the initially-lost packets, the fraction ARQ got through."""
        lost = self.recovered + self.unrecovered
        return 100.0 * self.recovered / lost if lost else 100.0

    @property
    def residual_loss_pct(self) -> float:
        """End-to-end loss after the retry budget."""
        return 100.0 * self.unrecovered / self.packets

    @property
    def airtime_overhead_pct(self) -> float:
        """Extra airtime (retransmissions + ACKs) over one clean pass."""
        clean = self.data_airtime_ms - self.ack_airtime_ms
        per_packet = clean / (self.packets + self.retransmissions)
        baseline = per_packet * self.packets
        return 100.0 * (self.data_airtime_ms - baseline) / baseline


def arq_recovery(
    ber: float,
    n_packets: int = 400,
    seed: int = 0,
) -> ResilienceResult:
    """Send hash packets point-to-point under ARQ at one BER.

    The result is read back from a fresh telemetry registry — the single
    source of truth for ARQ/airtime accounting — rather than from ad-hoc
    stat structs.
    """
    telemetry = Telemetry()
    radio = replace(LOW_POWER, bit_error_rate=ber)
    network = WirelessNetwork(
        tdma=TDMAConfig(radio=radio), seed=seed, telemetry=telemetry
    )
    link = ReliableLink(network)
    link.attach(0, lambda p: None)
    link.attach(1, lambda p: None)

    payloads = np.random.default_rng(seed).integers(
        0, 256, (n_packets, HASH_PAYLOAD_BYTES), dtype=np.uint8
    )
    link.send_many([
        Packet.build(0, 1, PayloadKind.HASHES, row.tobytes(), seq=i & 0xFFFF)
        for i, row in enumerate(payloads)
    ])

    reg = telemetry.registry
    # ``network.airtime_ms`` books data bursts only; ACKs are booked by
    # the ARQ layer under ``arq.ack_airtime_ms`` — their sum is the total
    # time the medium was busy
    return ResilienceResult(
        ber=ber,
        packets=int(reg.counter("arq.packets")),
        first_try=int(reg.counter("arq.delivered_first_try")),
        recovered=int(reg.counter("arq.recovered")),
        unrecovered=int(reg.counter("arq.failed")),
        retransmissions=int(reg.counter("arq.retries")),
        data_airtime_ms=reg.counter("network.airtime_ms")
        + reg.counter("arq.ack_airtime_ms"),
        ack_airtime_ms=reg.counter("arq.ack_airtime_ms"),
        backoff_ms=reg.counter("arq.backoff_ms"),
    )


def resilience_sweep(
    n_packets: int = 400, seed: int = 0
) -> dict[float, ResilienceResult]:
    """The recovery-rate-vs-BER curve over :data:`SWEEP_BERS`."""
    return {
        ber: arq_recovery(ber, n_packets, seed=seed)
        for ber in SWEEP_BERS
    }


def crash_query_degradation(n_nodes: int = 4) -> DistributedQueryResult:
    """Lose one implant mid-session; show queries keep answering.

    Ingests a few windows fleet-wide, crashes one node, then runs a Q3
    time-range query over the survivors.  The returned result is tagged
    ``degraded`` with coverage ``(n_nodes - 1) / n_nodes`` — the paper's
    availability story under a real node failure.
    """
    system = ScaloSystem(
        n_nodes=n_nodes, electrodes_per_node=CRASH_ELECTRODES, seed=CRASH_SEED
    )
    rng = np.random.default_rng(CRASH_SEED)
    from repro.units import WINDOW_SAMPLES

    for _ in range(CRASH_WINDOWS):
        system.ingest(
            rng.normal(
                size=(n_nodes, CRASH_ELECTRODES, WINDOW_SAMPLES)
            ).astype(np.float32)
        )
    system.fail_node(CRASH_NODE)
    spec = QuerySpec(kind="q3", time_range_ms=100.0)
    return system.query(spec, (0, CRASH_WINDOWS))


@dataclass
class RecoveryCoverageResult:
    """Coverage before and after one crash → reboot → resync cycle."""

    before: DistributedQueryResult
    after: DistributedQueryResult
    records_replayed: int
    batches_pulled: int
    batches_pushed: int
    scrub_bits_corrected: int

    @property
    def coverage_before(self) -> float:
        return self.before.coverage

    @property
    def coverage_after(self) -> float:
        return self.after.coverage


def crash_recovery_coverage(n_nodes: int = 4) -> RecoveryCoverageResult:
    """Lose an implant, reboot it through recovery, regain full coverage.

    The fleet ingests :data:`CRASH_AFTER` windows (hashes exchanged over
    an ARQ link), then :data:`CRASH_NODE` goes down and a Q3 query answers
    degraded at ``(n_nodes - 1) / n_nodes`` coverage.  While the node is
    down one NVM bit rots (downtime is retention time).  The reboot runs
    the full :meth:`~repro.core.system.ScaloSystem.recover_node` path —
    journal replay, a scrub pass that repairs the rot, and an
    anti-entropy round that pulls the hash batches broadcast while it
    was dark — after which ingest resumes fleet-wide and the same query
    over *all* windows answers at coverage 1.0.
    """
    from repro.units import WINDOW_SAMPLES

    system = ScaloSystem(
        n_nodes=n_nodes, electrodes_per_node=CRASH_ELECTRODES,
        seed=CRASH_SEED, arq=True,
    )
    rng = np.random.default_rng(CRASH_SEED)

    def ingest_round(window: int) -> None:
        batch = system.ingest(
            rng.normal(
                size=(n_nodes, CRASH_ELECTRODES, WINDOW_SAMPLES)
            ).astype(np.float32)
        )
        for src in system.alive_node_ids:
            if batch[src]:
                system.broadcast_hashes(src, batch[src], seq=window)
        for node in system.alive_node_ids:
            system.drain_inbox(node)

    for window in range(CRASH_AFTER):
        ingest_round(window)
    system.fail_node(CRASH_NODE)
    # downtime is retention time: one bit rots before the reboot
    device = system.nodes[CRASH_NODE].storage.device
    device.inject_bit_rot(device.programmed_pages[0], np.array([0]))

    spec = QuerySpec(kind="q3", time_range_ms=100.0)
    before = system.query(spec, (0, CRASH_AFTER))

    report = system.recover_node(CRASH_NODE)
    for window in range(CRASH_AFTER, CRASH_WINDOWS):
        ingest_round(window)
    after = system.query(spec, (0, CRASH_WINDOWS))
    return RecoveryCoverageResult(
        before=before,
        after=after,
        records_replayed=report.replay.records_replayed,
        batches_pulled=report.resync.batches_pulled,
        batches_pushed=report.resync.batches_pushed,
        scrub_bits_corrected=report.scrub.bits_corrected,
    )
