"""Reference CRC-32: the NPACK checksum built from its polynomial.

IEEE 802.3 CRC-32 in the reflected 0xEDB88320 form, one table lookup per
byte.  :class:`repro.network.packet.Packet` computes its header and
payload checksums with ``zlib.crc32``; the tests hold that to this
table-driven definition.  Slow by design; used only by the tests.
"""

from __future__ import annotations

_POLY = 0xEDB88320


def _build_table() -> list[int]:
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            crc = (crc >> 1) ^ _POLY if crc & 1 else crc >> 1
        table.append(crc)
    return table


_TABLE = _build_table()


def crc32(data: bytes, seed: int = 0) -> int:
    """CRC32 of ``data``; chainable via ``seed`` (pass the previous CRC)."""
    crc = seed ^ 0xFFFFFFFF
    for byte in data:
        crc = _TABLE[(crc ^ byte) & 0xFF] ^ (crc >> 8)
    return crc ^ 0xFFFFFFFF
