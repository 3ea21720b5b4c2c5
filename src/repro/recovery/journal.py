"""A CRC-framed write-ahead journal with an atomic checkpoint.

The journal lives in the NVM's ``mc`` partition (the microcontroller's
durable scratch): every metadata mutation appends one framed record
*before* the SRAM registers are updated, and a periodic checkpoint
compacts the log.  Frames are::

    magic   u16   0xA5C3
    rtype   u8    RecordType
    length  u32   payload bytes
    payload ...
    crc     u32   CRC32 over rtype | length | payload

Torn-write detection falls out of the framing: a crash mid-append
leaves a truncated or CRC-invalid tail frame, and :meth:`replay` stops
at the first bad frame — recovery always lands on a consistent prefix
of the committed operations.

The checkpoint is double-buffered: a new checkpoint is written fully
into the *inactive* slot, then a single pointer flip commits it and
truncates the log — a crash during checkpointing loses nothing, because
the previous slot (plus the untruncated log) is still valid.
"""

from __future__ import annotations

import enum
import functools
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

_MAGIC = 0xA5C3
_HEADER = struct.Struct("<HBI")  # magic, rtype, length
_CRC = struct.Struct("<I")


class RecordType(enum.IntEnum):
    """What one journal record describes."""

    CHECKPOINT = 0
    WINDOW = 1
    HASH_BATCH = 2
    APPDATA = 3
    COORDINATOR = 4


@dataclass(frozen=True)
class JournalRecord:
    rtype: RecordType
    payload: bytes


@dataclass(frozen=True)
class JournalImage:
    """A byte-level snapshot of the journal's durable area.

    This is what "the NVM at a crash cut point" looks like: the crash
    tests snapshot after every operation and recover from each image.
    """

    log: bytes
    checkpoints: tuple[bytes, bytes]
    active: int

    def torn(self, drop_bytes: int) -> "JournalImage":
        """The same image with the log's last ``drop_bytes`` torn off —
        a crash that interrupted the final append mid-write."""
        if drop_bytes <= 0:
            return self
        return JournalImage(
            self.log[: max(0, len(self.log) - drop_bytes)],
            self.checkpoints,
            self.active,
        )


@dataclass
class ReplayResult:
    """What :meth:`WriteAheadJournal.replay` recovered."""

    checkpoint: bytes | None
    records: list[JournalRecord]
    torn: bool


def _frame(rtype: int, payload: bytes) -> bytes:
    body = _HEADER.pack(_MAGIC, rtype, len(payload)) + payload
    return body + _CRC.pack(zlib.crc32(body[2:]))


@functools.cache
def _frame_dtype(fields: tuple[tuple, ...]) -> np.dtype:
    """One frame as a packed structured record: header, ``fields``, CRC."""
    return np.dtype([
        ("magic", "<u2"), ("rtype", "u1"), ("size", "<u4"),
        *fields, ("crc", "<u4"),
    ])


def new_frames(
    rtype: RecordType, fields: tuple[tuple, ...], count: int
) -> np.ndarray:
    """``count`` frames of ``rtype`` records whose payload is the packed
    structured ``fields``: headers set, payload and CRC zeroed.

    Fill the payload fields, then hand the frames (or a run of them) to
    :meth:`WriteAheadJournal.append_frames`.
    """
    frames = np.zeros(count, _frame_dtype(fields))
    frames["magic"] = _MAGIC
    frames["rtype"] = rtype
    frames["size"] = frames.dtype.itemsize - _HEADER.size - _CRC.size
    return frames


def _parse_frame(buf: bytes, offset: int) -> tuple[JournalRecord | None, int]:
    """Parse one frame at ``offset``; returns (record | None, next offset)."""
    if offset + _HEADER.size > len(buf):
        return None, offset
    magic, rtype, length = _HEADER.unpack_from(buf, offset)
    if magic != _MAGIC:
        return None, offset
    end = offset + _HEADER.size + length + _CRC.size
    if end > len(buf):
        return None, offset  # truncated tail — torn write
    body = buf[offset + 2 : offset + _HEADER.size + length]
    (crc,) = _CRC.unpack_from(buf, end - _CRC.size)
    if zlib.crc32(body) != crc:
        return None, offset
    try:
        kind = RecordType(rtype)
    except ValueError:
        return None, offset
    payload = buf[offset + _HEADER.size : offset + _HEADER.size + length]
    return JournalRecord(kind, payload), end


@dataclass
class WriteAheadJournal:
    """The durable log + double-buffered checkpoint of one node."""

    _log: bytearray = field(init=False, default_factory=bytearray)
    _checkpoints: list[bytes] = field(init=False, default_factory=lambda: [b"", b""])
    _active: int = field(init=False, default=-1)  # -1: no checkpoint committed yet
    records_appended: int = field(init=False, default=0)

    # -- write side ---------------------------------------------------------------

    def append(self, rtype: RecordType, payload: bytes) -> None:
        """Append one framed record to the log."""
        self._log += _frame(int(rtype), payload)
        self.records_appended += 1

    def append_frames(self, frames: np.ndarray) -> None:
        """Append a run of :func:`new_frames` records, in order.

        Seals each frame with its CRC and adds the run to the log in one
        step; the log gains exactly the bytes one :meth:`append` per
        record would add.
        """
        size = frames.dtype.itemsize
        body = frames.tobytes()
        frames["crc"] = [
            zlib.crc32(body[start + 2 : start + size - _CRC.size])
            for start in range(0, len(body), size)
        ]
        self._log += frames.tobytes()
        self.records_appended += len(frames)

    def write_checkpoint(self, payload: bytes) -> None:
        """Atomically commit a checkpoint and truncate the log."""
        slot = 1 - self._active if self._active in (0, 1) else 0
        self._checkpoints[slot] = _frame(int(RecordType.CHECKPOINT), payload)
        self._active = slot  # the one-word atomic commit
        self._log = bytearray()

    # -- read side ----------------------------------------------------------------

    def checkpoint_payload(self) -> bytes | None:
        """The committed checkpoint, falling back to the other slot if
        the active one is torn."""
        order = [self._active, 1 - self._active] if self._active in (0, 1) else []
        for slot in order:
            record, _ = _parse_frame(self._checkpoints[slot], 0)
            if record is not None and record.rtype is RecordType.CHECKPOINT:
                return record.payload
        return None

    def replay(self) -> ReplayResult:
        """Walk the log; stop at the first torn/invalid frame."""
        records: list[JournalRecord] = []
        offset = 0
        buf = bytes(self._log)
        while offset < len(buf):
            record, next_offset = _parse_frame(buf, offset)
            if record is None:
                return ReplayResult(self.checkpoint_payload(), records, True)
            records.append(record)
            offset = next_offset
        return ReplayResult(self.checkpoint_payload(), records, False)

    def discard_torn_tail(self) -> int:
        """Drop a torn tail so future appends stay reachable.

        Returns the number of bytes discarded (0 when the log is clean).
        """
        buf = bytes(self._log)
        offset = 0
        while offset < len(buf):
            record, next_offset = _parse_frame(buf, offset)
            if record is None:
                break
            offset = next_offset
        dropped = len(buf) - offset
        if dropped:
            self._log = bytearray(buf[:offset])
        return dropped

    # -- crash modelling ----------------------------------------------------------

    def snapshot(self) -> JournalImage:
        """The durable bytes as they stand — what survives a crash now."""
        return JournalImage(
            bytes(self._log),
            (self._checkpoints[0], self._checkpoints[1]),
            self._active,
        )

    @classmethod
    def from_image(cls, image: JournalImage) -> "WriteAheadJournal":
        journal = cls()
        journal._log = bytearray(image.log)
        journal._checkpoints = [image.checkpoints[0], image.checkpoints[1]]
        journal._active = image.active
        return journal
