"""Intra-SCALO packet format (paper §3.4).

Packets carry an 84-bit header and up to 256 bytes of data; the header and
the data each get a 32-bit CRC32 checksum.  On a checksum error the
receiver drops hash packets but *keeps* signal packets, because similarity
measures like DTW tolerate a few flipped samples (§6.6).  ``zlib.crc32``
is the NPACK polynomial: IEEE 802.3 CRC-32, reflected form 0xEDB88320.

A packet is framed once: :class:`Packet` packs its header when it is
made and reads those bytes for its header CRC check and its wire form,
and the channel builds the wire bytes only for frames it corrupts.

Header layout (84 bits)::

    src        6 bits   source node id
    dst        6 bits   destination node id (63 = broadcast)
    kind       4 bits   payload kind
    flow       8 bits   flow tag (ILP schedule flow id)
    seq       16 bits   sequence number
    time      32 bits   window timestamp (units of 1/8 ms)
    length    12 bits   payload length in bytes
"""

from __future__ import annotations

import enum
import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError, NetworkError

if TYPE_CHECKING:
    from repro.telemetry.tracer import TraceContext

#: Maximum payload size (bytes).
MAX_PAYLOAD_BYTES = 256

#: Header size in bits (the paper's 84-bit header).
HEADER_BITS = 84

#: Wire overhead per packet: header + two CRC32s, in bits.
PACKET_OVERHEAD_BITS = HEADER_BITS + 2 * 32

#: Frame bytes around the payload: the 11 header bytes and two CRC32s.
FRAME_OVERHEAD_BYTES = 11 + 4 + 4

#: Broadcast destination id.
BROADCAST = 0x3F


class PayloadKind(enum.IntEnum):
    """What a packet carries — receivers dispatch and apply the
    drop-on-error policy by kind."""

    HASHES = 0
    SIGNAL = 1
    FEATURES = 2
    PARTIAL_RESULT = 3
    QUERY = 4
    QUERY_RESULT = 5
    CLOCK_SYNC = 6
    CONTROL = 7
    RESYNC = 8


@dataclass(frozen=True)
class Header:
    """Decoded packet header."""

    src: int
    dst: int
    kind: PayloadKind
    flow: int
    seq: int
    time_ticks: int
    length: int

    _FIELDS = (("src", 6), ("dst", 6), ("kind", 4), ("flow", 8),
               ("seq", 16), ("time_ticks", 32), ("length", 12))

    def __post_init__(self) -> None:
        if (
            0 <= self.src < 1 << 6 and 0 <= self.dst < 1 << 6
            and 0 <= self.kind < 1 << 4 and 0 <= self.flow < 1 << 8
            and 0 <= self.seq < 1 << 16 and 0 <= self.time_ticks < 1 << 32
            and 0 <= self.length < 1 << 12
        ):
            return
        # the field-by-field check decides (it truncates like pack) and
        # words the error
        for name, bits in self._FIELDS:
            value = int(getattr(self, name))
            if not 0 <= value < (1 << bits):
                raise ConfigurationError(
                    f"header field {name}={value} does not fit {bits} bits"
                )

    def pack(self) -> bytes:
        """Serialise to ceil(84 / 8) = 11 bytes (4 zero pad bits last)."""
        return (
            int(self.src) << 82 | int(self.dst) << 76 | int(self.kind) << 72
            | int(self.flow) << 64 | int(self.seq) << 48
            | int(self.time_ticks) << 16 | int(self.length) << 4
        ).to_bytes(11, "big")

    @classmethod
    def unpack(cls, raw: bytes) -> "Header":
        if len(raw) != 11:
            raise NetworkError(f"header must be 11 bytes, got {len(raw)}")
        acc = int.from_bytes(raw, "big") >> (88 - HEADER_BITS)
        values = {}
        for name, bits in reversed(cls._FIELDS):
            values[name] = acc & ((1 << bits) - 1)
            acc >>= bits
        try:
            values["kind"] = PayloadKind(values["kind"])
        except ValueError:
            # A bit flip can turn the 4-bit kind field into a value with no
            # enum member.  Keep the raw integer: the header CRC flags the
            # corruption, and IntEnum comparisons against plain ints still
            # work in the drop policy.
            pass
        return cls(**values)


@dataclass(frozen=True)
class Packet:
    """A framed packet: header + payload + both checksums."""

    header: Header
    payload: bytes
    header_crc: int
    payload_crc: int
    #: Distributed-tracing context riding along as out-of-band metadata.
    #: It is NOT part of the wire format (the 84-bit header is the
    #: paper's), so it never affects CRCs, airtime, or equality — the
    #: network re-attaches it across the channel the way an RPC stack
    #: carries trace headers outside the application payload.
    trace: "TraceContext | None" = field(
        default=None, compare=False, repr=False
    )
    #: ``header.pack()``, computed once per packet.  It is re-derived from
    #: the decoded header, never kept from received bytes, so flipped pad
    #: bits stay invisible exactly as on a re-pack; and ``replace`` re-runs
    #: ``__post_init__``, so a swapped header never keeps stale bytes.
    _header_bytes: bytes = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_header_bytes", self.header.pack())

    @classmethod
    def build(
        cls,
        src: int,
        dst: int,
        kind: PayloadKind,
        payload: bytes,
        flow: int = 0,
        seq: int = 0,
        time_ticks: int = 0,
        trace: "TraceContext | None" = None,
    ) -> "Packet":
        if len(payload) > MAX_PAYLOAD_BYTES:
            raise NetworkError(
                f"payload {len(payload)} B exceeds max {MAX_PAYLOAD_BYTES} B"
            )
        header = Header(src, dst, kind, flow, seq, time_ticks, len(payload))
        packet = cls(header, payload, 0, zlib.crc32(payload), trace)
        # the header CRC covers the bytes __post_init__ just packed
        object.__setattr__(
            packet, "header_crc", zlib.crc32(packet._header_bytes)
        )
        return packet

    # -- integrity ---------------------------------------------------------------

    @property
    def header_ok(self) -> bool:
        return zlib.crc32(self._header_bytes) == self.header_crc

    @property
    def payload_ok(self) -> bool:
        return zlib.crc32(self.payload) == self.payload_crc

    @property
    def intact(self) -> bool:
        return self.header_ok and self.payload_ok

    # -- wire size ----------------------------------------------------------------

    @property
    def wire_bits(self) -> int:
        """Total bits on air: header + payload + two CRCs."""
        return PACKET_OVERHEAD_BITS + 8 * len(self.payload)

    def to_wire(self) -> bytes:
        """Serialise the whole frame (header, crc, payload, crc)."""
        return (
            self._header_bytes
            + self.header_crc.to_bytes(4, "big")
            + self.payload
            + self.payload_crc.to_bytes(4, "big")
        )

    @classmethod
    def from_wire(cls, raw: bytes) -> "Packet":
        """Parse a frame laid out by :meth:`to_wire` (no integrity check)."""
        if len(raw) < FRAME_OVERHEAD_BYTES:
            raise NetworkError("frame too short")
        header_raw = raw[:11]
        header_crc = int.from_bytes(raw[11:15], "big")
        payload = raw[15:-4]
        payload_crc = int.from_bytes(raw[-4:], "big")
        return cls(Header.unpack(header_raw), payload, header_crc, payload_crc)

    @classmethod
    def parse(cls, raw: bytes) -> "Packet | None":
        """Total-function frame parser for untrusted bytes.

        Unlike :meth:`from_wire`, this never raises: frames too short to
        hold a header and both CRCs return ``None``, and any longer byte
        string parses into a (possibly corrupted) packet whose ``header_ok``
        / ``payload_ok`` predicates report the damage.
        """
        if len(raw) < FRAME_OVERHEAD_BYTES:
            return None
        return cls.from_wire(raw)
