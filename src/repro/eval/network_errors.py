"""Fig. 12: packet error rates and DTW failures vs network BER.

Simulates the intra-SCALO packet stream through the binary-symmetric
channel: hash packets (dropped when their CRC fails) and signal packets
(delivered corrupted — DTW tolerates bit flips).  A "DTW failure" is a
corrupted signal packet whose similarity *decision* flips relative to the
clean signal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datasets.synthetic_ieeg import generate_ieeg
from repro.network.channel import BitErrorChannel
from repro.network.packet import Packet, PayloadKind
from repro.similarity.dtw import DTW_BAND, dtw_rows
from repro.units import WINDOW_SAMPLES

#: BER points on the Fig. 12 x-axis.
BER_POINTS = (1e-4, 1e-5, 1e-6)

#: Hash payload: 96 electrodes x 1 B, HCOMP-compressed ~2x.
HASH_PAYLOAD_BYTES = 48

#: Seed of the Fig. 12 signal windows, payloads and channel.
SEED = 0


@dataclass
class NetworkErrorResult:
    """One BER point."""

    ber: float
    hash_packet_error_pct: float
    signal_packet_error_pct: float
    dtw_failure_pct: float


def _signal_windows(n: int, seed: int) -> np.ndarray:
    recording = generate_ieeg(
        n_nodes=1, n_electrodes=4, duration_s=max(0.5, n / 500),
        n_seizures=1, seizure_duration_s=0.2, seed=seed,
    )
    flat = recording.data.reshape(-1, recording.n_samples)
    rng = np.random.default_rng(seed)
    out = []
    per_channel = recording.n_samples // WINDOW_SAMPLES
    for _ in range(n):
        c = int(rng.integers(flat.shape[0]))
        w = int(rng.integers(per_channel))
        out.append(flat[c, w * WINDOW_SAMPLES:(w + 1) * WINDOW_SAMPLES])
    return np.stack(out)


def _quantise(window: np.ndarray) -> np.ndarray:
    scale = 1000.0
    return np.clip(np.round(window * scale), -32768, 32767).astype("<i2")


def network_errors(ber: float, n_packets: int = 400) -> NetworkErrorResult:
    """Run the Fig. 12 experiment at one BER, seeded by :data:`SEED`."""
    channel = BitErrorChannel(ber, seed=SEED + 1)

    # hash packets
    payloads = np.random.default_rng(SEED).integers(
        0, 256, (n_packets, HASH_PAYLOAD_BYTES), dtype=np.uint8
    )
    hash_errors = 0
    for i, row in enumerate(payloads):
        packet = Packet.build(
            0, 1, PayloadKind.HASHES, row.tobytes(), seq=i & 0xFFFF
        )
        received, flips = channel.transmit(packet)
        if flips and not received.intact:
            hash_errors += 1

    # signal packets + DTW decision flips
    windows = _signal_windows(n_packets, SEED)
    partner = np.roll(windows, 1, axis=0)
    signal_errors = 0
    clean_costs = dtw_rows(windows, partner, DTW_BAND)
    threshold = float(np.median(clean_costs))
    # corrupted payloads that still route, scored in one call after the
    # loop: no channel draw depends on a cost
    delivered: list[int] = []
    corrupted: list[np.ndarray] = []
    for i in range(n_packets):
        samples = _quantise(windows[i])
        packet = Packet.build(
            0, 1, PayloadKind.SIGNAL, samples.tobytes(), seq=i & 0xFFFF
        )
        received, flips = channel.transmit(packet)
        if flips == 0:
            continue
        if not received.intact:
            signal_errors += 1
        if not received.header_ok:
            continue  # unroutable; counted as an error above
        payload = np.frombuffer(received.payload, dtype="<i2").astype(float)
        if payload.shape[0] != WINDOW_SAMPLES:
            continue
        delivered.append(i)
        corrupted.append(payload / 1000.0)
    costs = dtw_rows(
        np.reshape(corrupted, (-1, WINDOW_SAMPLES)), partner[delivered],
        DTW_BAND,
    )
    clean_decision = clean_costs[delivered] <= threshold
    dtw_failures = int(np.count_nonzero(clean_decision != (costs <= threshold)))

    return NetworkErrorResult(
        ber=ber,
        hash_packet_error_pct=100.0 * hash_errors / n_packets,
        signal_packet_error_pct=100.0 * signal_errors / n_packets,
        dtw_failure_pct=100.0 * dtw_failures / n_packets,
    )


def fig12(n_packets: int = 400) -> dict[float, NetworkErrorResult]:
    """All BER points (seed 0)."""
    return {ber: network_errors(ber, n_packets)
            for ber in BER_POINTS}
