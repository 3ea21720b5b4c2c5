"""The bit-error channel: memoryless corruption of packet frames.

The paper's Fig. 12/15b experiments inject uniformly-random bit errors
into packet headers and payloads at a given bit-error ratio and observe
the effect on checksums and on application outcomes.
:class:`BitErrorChannel` is that memoryless binary-symmetric channel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.network.packet import Packet


def flip_bits(data: bytes, bit_indices: np.ndarray) -> bytes:
    """Return ``data`` with the given absolute bit positions flipped.

    Vectorised: builds a byte-level XOR mask instead of looping per bit.
    Bit 0 is the most-significant bit of byte 0 (network order), and a
    position listed twice flips twice (a no-op), exactly as the scalar
    loop behaved.
    """
    if len(data) == 0:
        return data
    idx = np.atleast_1d(np.asarray(bit_indices, dtype=np.int64))
    if idx.size == 0:
        return data
    out_of_range = (idx < 0) | (idx >= 8 * len(data))
    if out_of_range.any():
        bad = int(idx[out_of_range][0])
        raise ConfigurationError(f"bit index {bad} out of range")
    buf = np.frombuffer(data, dtype=np.uint8).copy()
    masks = np.left_shift(np.uint8(1), (7 - (idx & 7)).astype(np.uint8))
    np.bitwise_xor.at(buf, idx >> 3, masks)
    return buf.tobytes()


@dataclass
class BitErrorChannel:
    """A memoryless binary-symmetric channel at a fixed BER."""

    bit_error_rate: float
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.bit_error_rate < 1:
            raise ConfigurationError("BER must be in [0, 1)")
        self._rng = np.random.default_rng(self.seed)

    def corrupt_bytes(self, data: bytes) -> tuple[bytes, int]:
        """Pass ``data`` through the channel; returns (output, n_flipped)."""
        n_bits = 8 * len(data)
        if n_bits == 0 or self.bit_error_rate == 0:
            return data, 0
        n_errors = self._rng.binomial(n_bits, self.bit_error_rate)
        if n_errors == 0:
            return data, 0
        positions = self._rng.choice(n_bits, size=n_errors, replace=False)
        return flip_bits(data, positions), int(n_errors)

    def transmit(self, packet: Packet) -> tuple[Packet, int]:
        """Send one packet through the channel.

        The whole frame (header, CRCs, payload) is exposed to errors, so a
        flip may land in the header, a checksum, or the data.

        Returns:
            (received packet, number of flipped bits).
        """
        wire = packet.to_wire()
        corrupted, n_flipped = self.corrupt_bytes(wire)
        if n_flipped == 0:
            return packet, 0
        return Packet.from_wire(corrupted), n_flipped
