"""The bit-error channel: memoryless corruption of packet frames.

The paper's Fig. 12/15b experiments inject uniformly-random bit errors
into packet headers and payloads at a given bit-error ratio and observe
the effect on checksums and on application outcomes.
:class:`BitErrorChannel` is that memoryless binary-symmetric channel.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.network.packet import FRAME_OVERHEAD_BYTES, Packet


def flip_bits(data: bytes, bit_indices: np.ndarray) -> bytes:
    """Return ``data`` with the given absolute bit positions flipped.

    Each position XORs one bit of a byte copy, so a position listed
    twice flips twice (a no-op).  Bit 0 is the most-significant bit of
    byte 0 (network order).  A plain loop: a corrupted frame carries a
    handful of flips, where numpy's set-up cost is most of the work.
    """
    if len(data) == 0:
        return data
    n_bits = 8 * len(data)
    buf = bytearray(data)
    for bit in np.asarray(bit_indices, dtype=np.int64).ravel().tolist():
        if not 0 <= bit < n_bits:
            raise ConfigurationError(f"bit index {bit} out of range")
        buf[bit >> 3] ^= 0x80 >> (bit & 7)
    return bytes(buf)


@dataclass
class BitErrorChannel:
    """A memoryless binary-symmetric channel at a fixed BER."""

    bit_error_rate: float
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.bit_error_rate < 1:
            raise ConfigurationError("BER must be in [0, 1)")
        self._rng = np.random.default_rng(self.seed)
        #: ``(frame bits, flips)`` that :meth:`passes_clean` drew for the
        #: frames of a packet that flips, in air order
        self._drawn: deque[tuple[int, int]] = deque()

    def _flip_positions(self, n_bits: int) -> np.ndarray | None:
        """Draw which of ``n_bits`` bits flip (``None`` when none do)."""
        if n_bits == 0 or self.bit_error_rate == 0:
            return None
        if self._drawn:
            drawn_bits, n_errors = self._drawn.popleft()
            assert drawn_bits == n_bits, "frames sent out of drawn order"
        else:
            n_errors = self._rng.binomial(n_bits, self.bit_error_rate)
        if n_errors == 0:
            return None
        return self._rng.choice(n_bits, size=n_errors, replace=False)

    def passes_clean(self, payload_bytes: Sequence[int]) -> bool:
        """Draw whether one packet's frames all cross without a flip.

        ``payload_bytes`` lists the packet's frames in the order they go
        on air.  The draws are the ones :meth:`transmit` would make for
        them.  When a frame flips, drawing stops there and the draws made
        so far wait for the transmits that follow, which use them in
        order instead of drawing; so each frame is drawn once either way.
        """
        if self.bit_error_rate == 0:
            return True
        assert not self._drawn, "a frame drawn ahead was never sent"
        drawn = []
        for n in payload_bytes:
            n_bits = 8 * (FRAME_OVERHEAD_BYTES + n)
            n_errors = self._rng.binomial(n_bits, self.bit_error_rate)
            drawn.append((n_bits, n_errors))
            if n_errors:
                self._drawn.extend(drawn)
                return False
        return True

    def corrupt_bytes(self, data: bytes) -> tuple[bytes, int]:
        """Pass ``data`` through the channel; returns (output, n_flipped)."""
        positions = self._flip_positions(8 * len(data))
        if positions is None:
            return data, 0
        return flip_bits(data, positions), len(positions)

    def transmit(self, packet: Packet) -> tuple[Packet, int]:
        """Send one packet through the channel.

        The whole frame (header, CRCs, payload) is exposed to errors, so a
        flip may land in the header, a checksum, or the data.  The draws
        are those of :meth:`corrupt_bytes` on ``packet.to_wire()``, but
        the wire bytes are built only when a bit flips.

        Returns:
            (received packet, number of flipped bits).
        """
        positions = self._flip_positions(
            8 * (FRAME_OVERHEAD_BYTES + len(packet.payload))
        )
        if positions is None:
            return packet, 0
        corrupted = flip_bits(packet.to_wire(), positions)
        return Packet.from_wire(corrupted), len(positions)
