"""Reference frame path: pack, serialise and corrupt every frame in full.

:class:`repro.network.packet.Packet` packs its header once and
:meth:`repro.network.channel.BitErrorChannel.transmit` builds wire bytes
only for frames it corrupts.  This module is the plain path those fast
paths must match: the header packed field by field, the whole frame
serialised on every transmission and passed through
:meth:`~repro.network.channel.BitErrorChannel.corrupt_bytes`, and both
checksums recomputed with the table CRC of :mod:`tests.crc_oracle`.
Slow by design; used only by the tests.
"""

from __future__ import annotations

from repro.network.channel import BitErrorChannel
from repro.network.packet import HEADER_BITS, Header, Packet
from tests import crc_oracle

#: (field, bits) in wire order, the 84-bit header of paper §3.4
FIELDS = (("src", 6), ("dst", 6), ("kind", 4), ("flow", 8),
          ("seq", 16), ("time_ticks", 32), ("length", 12))


def header_fits(values: dict[str, object]) -> bool:
    """Does every (int-truncated) field value fit its bit width?"""
    return all(
        0 <= int(values[name]) < (1 << bits) for name, bits in FIELDS
    )


def pack_header(header: Header) -> bytes:
    """The 11 header bytes, one field at a time, pad bits zero."""
    acc = 0
    for name, bits in FIELDS:
        acc = (acc << bits) | int(getattr(header, name))
    return (acc << (88 - HEADER_BITS)).to_bytes(11, "big")


def wire(packet: Packet) -> bytes:
    """The frame: header, header CRC, payload, payload CRC."""
    return (
        pack_header(packet.header)
        + packet.header_crc.to_bytes(4, "big")
        + packet.payload
        + packet.payload_crc.to_bytes(4, "big")
    )


def checks(packet: Packet) -> tuple[bool, bool]:
    """(header_ok, payload_ok) by the table CRC over a fresh pack."""
    return (
        crc_oracle.crc32(pack_header(packet.header)) == packet.header_crc,
        crc_oracle.crc32(packet.payload) == packet.payload_crc,
    )


def transmit(channel: BitErrorChannel, packet: Packet) -> tuple[Packet, int]:
    """Serialise, corrupt the bytes, and reparse when a bit flipped."""
    corrupted, n_flipped = channel.corrupt_bytes(wire(packet))
    if n_flipped == 0:
        return packet, 0
    return Packet.from_wire(corrupted), n_flipped
