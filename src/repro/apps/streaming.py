"""External telemetry offload: HALO's compress-encrypt-transmit pipeline.

SCALO retains HALO's single-implant offload path: raw neural data is
compressed (LIC for samples, or LZ / Markov-range-coding for byte
streams), AES-encrypted, packetised, and shipped over the 46 Mbps
external radio to a base station (paper §2.1, §3.4 — the LZ/LZMA/AES/
RC/MA/LIC PEs exist for exactly this).

:class:`TelemetryOffloader` is the functional transmit side;
:class:`TelemetryReceiver` undoes it (the base station), and
:func:`offload_budget` computes the sustainable electrode count from the
radio rate and the achieved compression ratio.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.compression.lic import lic_compress, lic_decompress
from repro.compression.lz import lz_compress, lz_decompress
from repro.compression.range_coder import rc_compress, rc_decompress
from repro.crypto.aes import AES128
from repro.errors import ConfigurationError
from repro.network.packet import MAX_PAYLOAD_BYTES, Packet, PayloadKind
from repro.network.radio import EXTERNAL_RADIO
from repro.units import ELECTRODE_RATE_BPS

#: Source id the offload packets carry: the one implant that streams out.
OFFLOAD_NODE_ID = 0


class Codec(enum.Enum):
    """Compression choices, each backed by a Table 1 PE."""

    LIC = "lic"  # linear integer coding of raw samples
    LZ = "lz"  # Lempel-Ziv on the byte stream
    RC = "rc"  # Markov-modelled range coding


@dataclass
class OffloadChunk:
    """One encrypted, compressed telemetry unit plus its packets."""

    sequence: int
    codec: Codec
    nonce: bytes
    ciphertext: bytes
    packets: list[Packet]

    @property
    def wire_bytes(self) -> int:
        return sum(len(p.payload) for p in self.packets)


@dataclass
class TelemetryOffloader:
    """The implant-side pipeline: compress -> encrypt -> packetise."""

    key: bytes
    codec: Codec = Codec.LIC

    def __post_init__(self) -> None:
        self._cipher = AES128(self.key)
        self._sequence = 0

    def _compress(self, samples: np.ndarray) -> bytes:
        samples = np.asarray(samples, dtype=np.int64)
        if samples.ndim != 1:
            raise ConfigurationError("offload expects a 1-D sample stream")
        if self.codec is Codec.LIC:
            return lic_compress(samples)
        raw = samples.astype("<i2").tobytes()
        if self.codec is Codec.LZ:
            return lz_compress(raw)
        return rc_compress(raw, order=1)

    def offload(self, samples: np.ndarray) -> OffloadChunk:
        """Run one chunk through the pipeline."""
        compressed = self._compress(samples)
        nonce = self._sequence.to_bytes(8, "big")
        ciphertext = self._cipher.ctr_encrypt(compressed, nonce)

        packets = []
        for i in range(0, len(ciphertext), MAX_PAYLOAD_BYTES):
            packets.append(
                Packet.build(
                    OFFLOAD_NODE_ID,
                    0,
                    PayloadKind.SIGNAL,
                    ciphertext[i : i + MAX_PAYLOAD_BYTES],
                    seq=(self._sequence + len(packets)) & 0xFFFF,
                )
            )
        chunk = OffloadChunk(self._sequence, self.codec, nonce, ciphertext,
                             packets)
        self._sequence += 1
        return chunk

    def airtime_ms(self, chunk: OffloadChunk) -> float:
        """External-radio time to ship the chunk."""
        bits = sum(p.wire_bits for p in chunk.packets)
        return EXTERNAL_RADIO.airtime_ms(bits)


@dataclass
class TelemetryReceiver:
    """The base-station side: reassemble -> decrypt -> decompress."""

    key: bytes

    def __post_init__(self) -> None:
        self._cipher = AES128(self.key)

    def receive(self, chunk: OffloadChunk) -> np.ndarray:
        ciphertext = b"".join(p.payload for p in chunk.packets)
        if ciphertext != chunk.ciphertext:
            raise ConfigurationError("packet reassembly mismatch")
        compressed = self._cipher.ctr_decrypt(ciphertext, chunk.nonce)
        if chunk.codec is Codec.LIC:
            return lic_decompress(compressed)
        if chunk.codec is Codec.LZ:
            raw = lz_decompress(compressed)
        else:
            raw = rc_decompress(compressed)
        return np.frombuffer(raw, dtype="<i2").astype(np.int64)


def offload_budget(compression_ratio: float) -> float:
    """Electrodes whose raw stream the external radio sustains.

    HALO's headline 46 Mbps interfacing rate is exactly this quantity at
    ratio 1 for 96 electrodes; compression multiplies it.
    """
    if compression_ratio <= 0:
        raise ConfigurationError("compression ratio must be positive")
    return (
        EXTERNAL_RADIO.data_rate_mbps * 1e6 * compression_ratio
        / ELECTRODE_RATE_BPS
    )
