"""Bit-level I/O used by the entropy coders."""

from __future__ import annotations

from repro.errors import ConfigurationError


class BitWriter:
    """Accumulates bits MSB-first and renders them as bytes."""

    def __init__(self) -> None:
        self._bits: list[int] = []

    def write_bits(self, value: int, width: int) -> None:
        """Write ``value`` as ``width`` bits, MSB first."""
        if width < 0:
            raise ConfigurationError("width cannot be negative")
        if value < 0 or (width < 64 and value >= (1 << width)):
            raise ConfigurationError(f"value {value} does not fit in {width} bits")
        for shift in range(width - 1, -1, -1):
            self._bits.append((value >> shift) & 1)

    def write_unary(self, count: int) -> None:
        """``count`` zeros followed by a one (Elias-gamma prefix)."""
        if count < 0:
            raise ConfigurationError("unary count cannot be negative")
        self._bits.extend([0] * count)
        self._bits.append(1)

    @property
    def bit_length(self) -> int:
        return len(self._bits)

    def to_bytes(self) -> bytes:
        """Pack to bytes, zero-padded to a byte boundary."""
        out = bytearray()
        acc = 0
        n = 0
        for bit in self._bits:
            acc = (acc << 1) | bit
            n += 1
            if n == 8:
                out.append(acc)
                acc = 0
                n = 0
        if n:
            out.append(acc << (8 - n))
        return bytes(out)


class BitReader:
    """Reads bits MSB-first from a byte string."""

    def __init__(self, data: bytes, bit_length: int | None = None):
        self._data = data
        self._pos = 0
        self._limit = bit_length if bit_length is not None else 8 * len(data)
        if self._limit > 8 * len(data):
            raise ConfigurationError("bit_length exceeds the data")

    @property
    def remaining(self) -> int:
        return self._limit - self._pos

    def read_bit(self) -> int:
        if self._pos >= self._limit:
            raise ConfigurationError("bit stream exhausted")
        byte = self._data[self._pos // 8]
        bit = (byte >> (7 - self._pos % 8)) & 1
        self._pos += 1
        return bit

    def read_bits(self, width: int) -> int:
        value = 0
        for _ in range(width):
            value = (value << 1) | self.read_bit()
        return value

    def read_unary(self) -> int:
        """Count zeros until the terminating one."""
        count = 0
        while self.read_bit() == 0:
            count += 1
        return count
