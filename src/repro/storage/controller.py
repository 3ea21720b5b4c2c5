"""The storage controller (SC PE): buffering, layout, and retrieval.

The SC fronts the NVM with a 24 KB SRAM that (a) buffers writes until a
full 4 KB page is ready, (b) reorganises the electrode-interleaved ADC
stream into the chunked per-electrode layout, and (c) holds metadata
registers (e.g. the last written page) to speed up recent-data retrieval
(paper §3.2/3.3).

This controller is functional: signal windows and hash batches round-trip
bit-exactly through the NVM device model, while the latency/energy books
are kept using the paper's calibrated costs.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ConfigurationError, StorageError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hashing.lsh import LSHFamily
from repro.recovery.journal import RecordType, WriteAheadJournal
from repro.storage.layout import (
    CHUNKED_READ_MS_PER_WINDOW,
    CHUNKED_WRITE_MS_PER_WINDOW,
)
from repro.storage.nvm import NVMDevice, PAGE_BYTES
from repro.storage.partitions import PARTITION_NAMES, PartitionTable
from repro.telemetry import NULL_TELEMETRY, TelemetryLike

#: SC SRAM buffer size (paper §5: sized to 24 KB from the NVSim numbers).
SC_BUFFER_BYTES = 24 * 1024

#: SC PE access latency: 0.03 ms with the NVM available, 0.04 ms when busy.
SC_LATENCY_FREE_MS = 0.03
SC_LATENCY_BUSY_MS = 0.04

#: Auto-compaction threshold: checkpoint after this many journal records.
CHECKPOINT_EVERY_RECORDS = 512

#: Journal record payload codecs (all little-endian).  WINDOW records carry
#: an optional signature tail: ``<H`` component count (0 = no signature)
#: followed by that many ``<i`` hash components (the hash-on-write cache).
_WINDOW_REC = struct.Struct("<HIQIQ")  # electrode, window, addr, len, head
_HASH_REC = struct.Struct("<IQIdHHQ")  # window, addr, len, time, nsig, ncomp, head
_APPDATA_REC = struct.Struct("<QIQ")  # addr, len, head (key prefixed)
_CKPT_MAGIC = b"SCK2"


@dataclass
class _StoredObject:
    address: int
    length: int


@dataclass
class StorageRecovery:
    """What one crash recovery replayed."""

    checkpoint_used: bool
    records_replayed: int
    torn_tail: bool


@dataclass
class StorageController:
    """One node's storage controller plus its NVM device."""

    device: NVMDevice = field(default_factory=NVMDevice)
    table: PartitionTable = field(default=None)  # type: ignore[assignment]
    #: accumulated SC + layout latency (ms) since reset
    busy_ms: float = 0.0
    #: injectable observability handle (``storage.*`` metrics); the SC's
    #: simulated busy time advances the telemetry clock on each access
    telemetry: TelemetryLike = field(default=NULL_TELEMETRY, repr=False)
    #: optional hash family for the hash-on-write signature cache: when
    #: set, every stored window's LSH signature (of the *quantised* int16
    #: samples, i.e. exactly what ``read_window`` returns) is computed at
    #: ingest and journaled alongside the window record, so Q2 hash
    #: queries never re-read and re-hash raw samples
    lsh: "LSHFamily | None" = field(default=None, repr=False)

    def _meter(
        self, counter: str, busy0: float, reads0: int, writes0: int
    ) -> None:
        """Book one storage operation's deltas into the registry."""
        tel = self.telemetry
        stats = self.device.stats
        tel.inc(counter)
        if stats.page_reads > reads0:
            tel.inc("storage.nvm_reads", stats.page_reads - reads0)
        if stats.page_writes > writes0:
            tel.inc("storage.nvm_writes", stats.page_writes - writes0)
        tel.advance_ms(self.busy_ms - busy0)
        tel.set_gauge("storage.busy_ms", self.busy_ms)
        tel.set_gauge("storage.nvm_energy_nj", stats.dynamic_energy_nj)

    def __post_init__(self) -> None:
        if self.table is None:
            self.table = PartitionTable(self.device.capacity_bytes)
        self._buffer: bytearray = bytearray()
        self._buffer_partition: str | None = None
        self._windows: dict[tuple[int, int], _StoredObject] = {}
        self._signatures: dict[tuple[int, int], tuple[int, ...]] = {}
        self._hashes: dict[int, _StoredObject] = {}
        self._hash_times: list[float] = []
        self._hash_meta: dict[int, tuple[float, int, int]] = {}
        self._templates: dict[str, _StoredObject] = {}
        self._next_page: dict[str, int] = {}
        self.last_written_page: int | None = None  # the metadata register
        #: durable write-ahead journal + checkpoint (lives in the ``mc``
        #: partition; survives crashes, unlike the metadata dicts above)
        self.journal = WriteAheadJournal()
        self._records_at_checkpoint = 0

    # -- low-level page append ----------------------------------------------------

    def _append_bytes(self, partition: str, data: bytes) -> int:
        """Write ``data`` into ``partition`` page by page; returns address."""
        part = self.table[partition]
        address = part.append(len(data))
        page = address // PAGE_BYTES
        offset = address % PAGE_BYTES
        # The device model programs whole pages; fold partial-page appends
        # through the SRAM buffer (read-merge is free, the SRAM holds it).
        cursor = 0
        while cursor < len(data):
            take = min(PAGE_BYTES - offset, len(data) - cursor)
            chunk = data[cursor : cursor + take]
            if self.device.is_programmed(page):
                # erase-free buffer merge, verified by the ECC engine
                self.device.rewrite_range(page, offset, chunk)
            else:
                padded = bytearray(b"\xff" * PAGE_BYTES)
                padded[offset : offset + take] = chunk
                self.device.program_page(page, bytes(padded))
            self.last_written_page = page
            cursor += take
            page += 1
            offset = 0
        return address

    def _read_bytes(self, address: int, length: int) -> bytes:
        page = address // PAGE_BYTES
        offset = address % PAGE_BYTES
        out = bytearray()
        while length > 0:
            take = min(PAGE_BYTES - offset, length)
            aligned_offset = offset - offset % 8
            aligned_len = -(-(offset + take - aligned_offset) // 8) * 8
            aligned_len = min(aligned_len, PAGE_BYTES - aligned_offset)
            data = self.device.read(page, aligned_offset, aligned_len)
            out += data[offset - aligned_offset : offset - aligned_offset + take]
            length -= take
            page += 1
            offset = 0
        return bytes(out)

    # -- signal windows -------------------------------------------------------------

    def store_window(
        self,
        electrode: int,
        window_index: int,
        samples: np.ndarray,
        signature: tuple[int, ...] | None = None,
    ) -> None:
        """Persist one electrode-window (int16 samples) in chunked layout.

        Args:
            signature: precomputed LSH signature of the quantised samples
                (batch ingest paths hash whole arrays at once); when
                ``None`` and an :attr:`lsh` is configured, the signature
                is computed here.  Either way it is journaled with the
                window record so crash recovery restores the cache
                without rehashing.
        """
        samples = np.asarray(samples)
        if samples.ndim != 1:
            raise StorageError("expected a 1-D sample window")
        quantised = samples.astype("<i2")
        data = quantised.tobytes()
        if len(data) > SC_BUFFER_BYTES:
            raise StorageError("window larger than the SC write buffer")
        if signature is None and self.lsh is not None:
            # hash what read_window will return (the int16 round-trip),
            # not the raw float samples — the query path compares stored
            # data, and the two differ by quantisation
            try:
                signature = self.lsh.hash_window(quantised.astype(float))
            except ConfigurationError:
                signature = None  # window shorter than the hash geometry
        metered = self.telemetry.enabled
        if metered:
            busy0, reads0, writes0 = (
                self.busy_ms,
                self.device.stats.page_reads,
                self.device.stats.page_writes,
            )
        address = self._append_bytes("signals", data)
        sig_tail = (
            struct.pack("<H", 0)
            if signature is None
            else struct.pack(f"<H{len(signature)}i", len(signature), *signature)
        )
        self.journal.append(
            RecordType.WINDOW,
            _WINDOW_REC.pack(
                electrode, window_index, address, len(data),
                self.table["signals"].write_head,
            )
            + sig_tail,
        )
        self._windows[(electrode, window_index)] = _StoredObject(address, len(data))
        if signature is not None:
            self._signatures[(electrode, window_index)] = tuple(
                int(c) for c in signature
            )
        else:
            self._signatures.pop((electrode, window_index), None)
        self.busy_ms += SC_LATENCY_FREE_MS + CHUNKED_WRITE_MS_PER_WINDOW
        if metered:
            self._meter("storage.windows_stored", busy0, reads0, writes0)
        self._maybe_checkpoint()

    def store_channel_windows(
        self, window_index: int, windows: np.ndarray
    ) -> None:
        """Persist one window per electrode from ``(channels, samples)``."""
        windows = np.asarray(windows)
        if windows.ndim != 2:
            raise StorageError("expected (channels, samples)")
        signatures: list[tuple[int, ...] | None]
        if self.lsh is not None and windows.shape[0] > 0:
            quantised = windows.astype("<i2")
            try:
                signatures = [
                    tuple(int(c) for c in row)
                    for row in self.lsh.hash_windows(quantised.astype(float))
                ]
            except ConfigurationError:
                signatures = [None] * windows.shape[0]
        else:
            signatures = [None] * windows.shape[0]
        for electrode, row in enumerate(windows):
            self.store_window(
                electrode, window_index, row, signature=signatures[electrode]
            )

    def read_window(self, electrode: int, window_index: int) -> np.ndarray:
        """Retrieve a stored electrode-window."""
        try:
            obj = self._windows[(electrode, window_index)]
        except KeyError:
            raise StorageError(
                f"no stored window (electrode={electrode}, index={window_index})"
            ) from None
        metered = self.telemetry.enabled
        if metered:
            busy0, reads0, writes0 = (
                self.busy_ms,
                self.device.stats.page_reads,
                self.device.stats.page_writes,
            )
        data = self._read_bytes(obj.address, obj.length)
        self.busy_ms += SC_LATENCY_FREE_MS + CHUNKED_READ_MS_PER_WINDOW
        if metered:
            self._meter("storage.windows_read", busy0, reads0, writes0)
        return np.frombuffer(data, dtype="<i2").astype(np.int64)

    def has_window(self, electrode: int, window_index: int) -> bool:
        return (electrode, window_index) in self._windows

    def stored_windows(self) -> list[tuple[int, int]]:
        """All stored ``(electrode, window_index)`` pairs, sorted.

        The public form of what query engines previously read off the
        private ``_windows`` dict.
        """
        return sorted(self._windows)

    # -- signature cache ----------------------------------------------------------

    def window_signature(
        self, electrode: int, window_index: int
    ) -> tuple[int, ...] | None:
        """Cached LSH signature of a stored window, or ``None`` on miss.

        Hits cost one SC register access (no NVM read, no rehash); the
        cache is journaled at write time, invalidated by
        :meth:`lose_sram`, and restored by :meth:`recover` minus any
        entries whose backing pages are poisoned.
        """
        return self._signatures.get((electrode, window_index))

    def invalidate_signatures(self) -> None:
        """Drop every cached signature (queries fall back to rehashing)."""
        self._signatures = {}

    # -- hashes ----------------------------------------------------------------------

    def store_hash_batch(
        self, window_index: int, time_ms: float, signatures: list[tuple[int, ...]]
    ) -> None:
        """Persist one window's hashes for all electrodes."""
        if not signatures:
            raise StorageError("empty hash batch")
        n_components = len(signatures[0])
        if any(len(sig) != n_components for sig in signatures):
            raise StorageError("mixed signature widths in one batch")
        flat = [component for sig in signatures for component in sig]
        data = np.asarray(flat, dtype="<u2").tobytes()
        metered = self.telemetry.enabled
        if metered:
            busy0, reads0, writes0 = (
                self.busy_ms,
                self.device.stats.page_reads,
                self.device.stats.page_writes,
            )
        address = self._append_bytes("hashes", data)
        self.journal.append(
            RecordType.HASH_BATCH,
            _HASH_REC.pack(
                window_index, address, len(data), time_ms,
                len(signatures), n_components,
                self.table["hashes"].write_head,
            ),
        )
        self._hashes[window_index] = _StoredObject(address, len(data))
        self._hash_meta[window_index] = (time_ms, len(signatures), n_components)
        self._hash_times.append(time_ms)
        self.busy_ms += SC_LATENCY_FREE_MS
        if metered:
            self._meter("storage.hash_batches_stored", busy0, reads0, writes0)
        self._maybe_checkpoint()

    def read_hash_batch(self, window_index: int) -> list[tuple[int, ...]]:
        try:
            obj = self._hashes[window_index]
            _, n_signatures, n_components = self._hash_meta[window_index]
        except KeyError:
            raise StorageError(f"no stored hashes for window {window_index}") from None
        metered = self.telemetry.enabled
        if metered:
            busy0, reads0, writes0 = (
                self.busy_ms,
                self.device.stats.page_reads,
                self.device.stats.page_writes,
            )
        data = self._read_bytes(obj.address, obj.length)
        flat = np.frombuffer(data, dtype="<u2")
        self.busy_ms += SC_LATENCY_FREE_MS
        if metered:
            self._meter("storage.hash_batches_read", busy0, reads0, writes0)
        return [
            tuple(int(x) for x in flat[i * n_components : (i + 1) * n_components])
            for i in range(n_signatures)
        ]

    def stored_hash_windows(self) -> list[int]:
        """All window indexes with a stored hash batch (sorted)."""
        return sorted(self._hashes)

    def recent_hash_windows(self, now_ms: float, horizon_ms: float) -> list[int]:
        """Window indexes whose hashes fall in ``[now - horizon, now]``."""
        return [
            index
            for index, (time_ms, _, _) in self._hash_meta.items()
            if now_ms - horizon_ms <= time_ms <= now_ms
        ]

    # -- application data (templates, weights) ----------------------------------------

    def store_appdata(self, key: str, data: bytes) -> None:
        """Persist a named application object (spike template, weights)."""
        if not data:
            raise StorageError("refusing to store an empty object")
        address = self._append_bytes("appdata", data)
        encoded = key.encode("utf-8")
        self.journal.append(
            RecordType.APPDATA,
            struct.pack("<H", len(encoded)) + encoded
            + _APPDATA_REC.pack(
                address, len(data), self.table["appdata"].write_head
            ),
        )
        self._templates[key] = _StoredObject(address, len(data))
        self.busy_ms += SC_LATENCY_FREE_MS
        self._maybe_checkpoint()

    def read_appdata(self, key: str) -> bytes:
        try:
            obj = self._templates[key]
        except KeyError:
            raise StorageError(f"no stored object {key!r}") from None
        self.busy_ms += SC_LATENCY_FREE_MS
        return self._read_bytes(obj.address, obj.length)

    def appdata_keys(self) -> list[str]:
        return sorted(self._templates)

    # -- crash consistency -------------------------------------------------------------

    def _serialize_state(self) -> bytes:
        """Canonical bytes of the SRAM metadata (checkpoint payload).

        Dict entries serialise in insertion order, so a replayed
        controller (which re-inserts in journal order) serialises — and
        digests — byte-identically to the pre-crash original.
        """
        out = bytearray(_CKPT_MAGIC)
        out += struct.pack("<I", len(self._windows))
        for (electrode, window), obj in self._windows.items():
            out += struct.pack("<HIQI", electrode, window, obj.address, obj.length)
        out += struct.pack("<I", len(self._hashes))
        for window, obj in self._hashes.items():
            time_ms, n_sig, n_comp = self._hash_meta[window]
            out += struct.pack(
                "<IQIdHH", window, obj.address, obj.length, time_ms, n_sig, n_comp
            )
        out += struct.pack("<I", len(self._hash_times))
        for time_ms in self._hash_times:
            out += struct.pack("<d", time_ms)
        out += struct.pack("<I", len(self._templates))
        for key, obj in self._templates.items():
            encoded = key.encode("utf-8")
            out += struct.pack("<H", len(encoded)) + encoded
            out += struct.pack("<QI", obj.address, obj.length)
        out += struct.pack("<I", len(self._signatures))
        for (electrode, window), sig in self._signatures.items():
            out += struct.pack(
                f"<HIH{len(sig)}i", electrode, window, len(sig), *sig
            )
        out += struct.pack(
            "<q",
            -1 if self.last_written_page is None else self.last_written_page,
        )
        for name in PARTITION_NAMES:
            out += struct.pack("<Q", self.table[name].write_head)
        return bytes(out)

    def _restore_state(self, payload: bytes) -> None:
        from repro.errors import RecoveryError

        if payload[:4] != _CKPT_MAGIC:
            raise RecoveryError("checkpoint payload has a bad magic")
        offset = 4
        (n,) = struct.unpack_from("<I", payload, offset)
        offset += 4
        for _ in range(n):
            electrode, window, addr, length = struct.unpack_from(
                "<HIQI", payload, offset
            )
            offset += 18
            self._windows[(electrode, window)] = _StoredObject(addr, length)
        (n,) = struct.unpack_from("<I", payload, offset)
        offset += 4
        for _ in range(n):
            window, addr, length, time_ms, n_sig, n_comp = struct.unpack_from(
                "<IQIdHH", payload, offset
            )
            offset += 28
            self._hashes[window] = _StoredObject(addr, length)
            self._hash_meta[window] = (time_ms, n_sig, n_comp)
        (n,) = struct.unpack_from("<I", payload, offset)
        offset += 4
        for _ in range(n):
            (time_ms,) = struct.unpack_from("<d", payload, offset)
            offset += 8
            self._hash_times.append(time_ms)
        (n,) = struct.unpack_from("<I", payload, offset)
        offset += 4
        for _ in range(n):
            (key_len,) = struct.unpack_from("<H", payload, offset)
            offset += 2
            key = payload[offset : offset + key_len].decode("utf-8")
            offset += key_len
            addr, length = struct.unpack_from("<QI", payload, offset)
            offset += 12
            self._templates[key] = _StoredObject(addr, length)
        (n,) = struct.unpack_from("<I", payload, offset)
        offset += 4
        for _ in range(n):
            electrode, window, n_comp = struct.unpack_from("<HIH", payload, offset)
            offset += 8
            components = struct.unpack_from(f"<{n_comp}i", payload, offset)
            offset += 4 * n_comp
            self._signatures[(electrode, window)] = tuple(components)
        (last_page,) = struct.unpack_from("<q", payload, offset)
        offset += 8
        self.last_written_page = None if last_page < 0 else last_page
        for name in PARTITION_NAMES:
            (head,) = struct.unpack_from("<Q", payload, offset)
            offset += 8
            self.table[name].write_head = head

    def _apply_record(self, rtype: RecordType, payload: bytes) -> None:
        if rtype is RecordType.WINDOW:
            electrode, window, addr, length, head = _WINDOW_REC.unpack_from(
                payload
            )
            self._windows[(electrode, window)] = _StoredObject(addr, length)
            # replay the journaled signature tail verbatim (never rehash:
            # the recovering controller may not even hold an LSH family)
            (n_comp,) = struct.unpack_from("<H", payload, _WINDOW_REC.size)
            if n_comp:
                components = struct.unpack_from(
                    f"<{n_comp}i", payload, _WINDOW_REC.size + 2
                )
                self._signatures[(electrode, window)] = tuple(components)
            else:
                self._signatures.pop((electrode, window), None)
            self.table["signals"].write_head = head
        elif rtype is RecordType.HASH_BATCH:
            window, addr, length, time_ms, n_sig, n_comp, head = (
                _HASH_REC.unpack(payload)
            )
            self._hashes[window] = _StoredObject(addr, length)
            self._hash_meta[window] = (time_ms, n_sig, n_comp)
            self._hash_times.append(time_ms)
            self.table["hashes"].write_head = head
        elif rtype is RecordType.APPDATA:
            (key_len,) = struct.unpack_from("<H", payload, 0)
            key = payload[2 : 2 + key_len].decode("utf-8")
            addr, length, head = _APPDATA_REC.unpack_from(payload, 2 + key_len)
            self._templates[key] = _StoredObject(addr, length)
            self.table["appdata"].write_head = head
        else:  # pragma: no cover - node journals hold only the above
            return
        self.last_written_page = (addr + length - 1) // PAGE_BYTES

    def checkpoint(self) -> None:
        """Atomically checkpoint the metadata and truncate the journal.

        Modelled as free: the checkpoint rides the MC partition's idle
        write slots, so it books no latency or energy against the data
        path (the journal frames themselves ride the page programs that
        carry the data they describe).
        """
        self.journal.write_checkpoint(self._serialize_state())
        self._records_at_checkpoint = self.journal.records_appended
        self.telemetry.inc("recovery.checkpoints")

    def _maybe_checkpoint(self) -> None:
        appended = self.journal.records_appended - self._records_at_checkpoint
        if appended >= CHECKPOINT_EVERY_RECORDS:
            self.checkpoint()

    def lose_sram(self) -> None:
        """Model a power loss: the SC's SRAM contents vanish.

        The write buffer, the metadata dicts, the last-written-page
        register, and the partition write heads are all SRAM state; the
        NVM pages and the journal survive (NAND is non-volatile).
        """
        self._buffer = bytearray()
        self._buffer_partition = None
        self._windows = {}
        self._signatures = {}
        self._hashes = {}
        self._hash_times = []
        self._hash_meta = {}
        self._templates = {}
        self._next_page = {}
        self.last_written_page = None
        self.table = PartitionTable(
            self.device.capacity_bytes, fractions=dict(self.table.fractions)
        )

    def recover(self) -> StorageRecovery:
        """Rebuild the SRAM metadata from checkpoint + journal replay."""
        self.lose_sram()
        replayed = self.journal.replay()
        if replayed.checkpoint is not None:
            self._restore_state(replayed.checkpoint)
        for record in replayed.records:
            self._apply_record(record.rtype, record.payload)
        if replayed.torn:
            self.journal.discard_torn_tail()
        self._records_at_checkpoint = self.journal.records_appended
        self._drop_poisoned_signatures()
        return StorageRecovery(
            checkpoint_used=replayed.checkpoint is not None,
            records_replayed=len(replayed.records),
            torn_tail=replayed.torn,
        )

    def _drop_poisoned_signatures(self) -> None:
        """Invalidate cache entries whose backing pages are unreadable.

        A warm cache must never claim a window the scalar path could not
        read: with the signature alone a query would skip the NVM read
        and return rows for data that is actually gone.
        """
        poisoned = set(self.device.poisoned_pages)
        if not poisoned:
            return
        for key in list(self._signatures):
            obj = self._windows.get(key)
            if obj is None:
                del self._signatures[key]
                continue
            first = obj.address // PAGE_BYTES
            last = (obj.address + obj.length - 1) // PAGE_BYTES
            if any(page in poisoned for page in range(first, last + 1)):
                del self._signatures[key]

    def state_digest(self) -> str:
        """SHA-256 over the canonical metadata bytes (crash-test oracle)."""
        return hashlib.sha256(self._serialize_state()).hexdigest()
