"""Elias-gamma coding of positive integers (used on run-length counts)."""

from __future__ import annotations

from repro.compression.bitstream import BitReader, BitWriter
from repro.errors import ConfigurationError


def encode_gamma(writer: BitWriter, value: int) -> None:
    """Append the Elias-gamma code of ``value`` (must be >= 1)."""
    if value < 1:
        raise ConfigurationError("Elias-gamma encodes integers >= 1")
    n = value.bit_length() - 1
    writer.write_unary(n)
    if n:
        writer.write_bits(value - (1 << n), n)


def decode_gamma(reader: BitReader) -> int:
    """Read one Elias-gamma-coded integer."""
    n = reader.read_unary()
    if n == 0:
        return 1
    return (1 << n) + reader.read_bits(n)
