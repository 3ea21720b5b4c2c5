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
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ConfigurationError, StorageError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hashing.lsh import LSHFamily
from repro.recovery.journal import RecordType, WriteAheadJournal, new_frames
from repro.storage.layout import (
    CHUNKED_READ_MS_PER_WINDOW,
    CHUNKED_WRITE_MS_PER_WINDOW,
)
from repro.storage.nvm import NVMDevice, PAGE_BYTES
from repro.storage.partitions import PARTITION_NAMES, PartitionTable
from repro.telemetry import NULL_TELEMETRY, TelemetryLike

#: SC SRAM buffer size (paper §5: sized to 24 KB from the NVSim numbers).
SC_BUFFER_BYTES = 24 * 1024

#: SC PE access latency with the NVM available (0.04 ms when it is busy).
SC_LATENCY_FREE_MS = 0.03

#: Auto-compaction threshold: checkpoint after this many journal records.
CHECKPOINT_EVERY_RECORDS = 512

#: Journal record payload codecs (all little-endian).  WINDOW records carry
#: an optional signature tail: ``<H`` component count (0 = no signature)
#: followed by that many ``<i`` hash components (the hash-on-write cache).
_WINDOW_REC = struct.Struct("<HIQIQ")  # electrode, window, addr, len, head
_HASH_REC = struct.Struct("<IQIdHHQ")  # window, addr, len, time, nsig, ncomp, head
_APPDATA_REC = struct.Struct("<QIQ")  # addr, len, head (key prefixed)
_CKPT_MAGIC = b"SCK2"


def _window_fields(n_components: int) -> tuple[tuple, ...]:
    """A WINDOW record as packed structured fields: ``_WINDOW_REC``, then
    the signature tail's ``<H`` count and ``n_components`` ``<i``."""
    return (
        ("electrode", "<u2"), ("window", "<u4"), ("address", "<u8"),
        ("length", "<u4"), ("head", "<u8"), ("n_components", "<u2"),
        ("signature", "<i4", (n_components,)),
    )


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
        self, counter: str, n: int, reads: int, writes: int, energy_nj: float,
    ) -> None:
        """Book ``n`` storage operations at once: one ``inc`` per count, and
        each gauge set to what the last one leaves (callers advance the
        clock per operation)."""
        tel = self.telemetry
        tel.inc(counter, n)
        if reads:
            tel.inc("storage.nvm_reads", reads)
        if writes:
            tel.inc("storage.nvm_writes", writes)
        tel.set_gauge("storage.busy_ms", self.busy_ms)
        tel.set_gauge("storage.nvm_energy_nj", energy_nj)

    def __post_init__(self) -> None:
        if self.table is None:
            self.table = PartitionTable(self.device.capacity_bytes)
        self._windows: dict[tuple[int, int], _StoredObject] = {}
        self._signatures: dict[tuple[int, int], tuple[int, ...]] = {}
        self._hashes: dict[int, _StoredObject] = {}
        self._hash_times: list[float] = []
        self._hash_meta: dict[int, tuple[float, int, int]] = {}
        self._templates: dict[str, _StoredObject] = {}
        self.last_written_page: int | None = None  # the metadata register
        #: durable write-ahead journal + checkpoint (lives in the ``mc``
        #: partition; survives crashes, unlike the metadata dicts above)
        self.journal = WriteAheadJournal()
        self._records_at_checkpoint = 0

    # -- page I/O -------------------------------------------------------------------

    def _append_objects(
        self,
        partition: str,
        data: bytes,
        length: int,
        count: int,
        commit: Callable[[slice, list[int], list[int]], None],
        step_ms: float,
        counter: str | None = None,
    ) -> None:
        """Append ``count`` blobs of ``length`` bytes from ``data``; the one
        write path.

        The batch is one step, cut after the blob where a checkpoint
        falls, so the checkpoint serialises the state as of that blob.
        Per segment: reserve the blobs' addresses, set the last-written
        page, ``commit(segment, addresses, write_heads)`` their journal
        records and metadata, and book ``step_ms`` of SC latency per blob
        as sequential float additions; with live telemetry the clock
        advances per blob and the segment is metered once as ``counter``.
        The device programs whole pages: the SRAM buffer folds the blobs
        into ordered ``(offset, chunk)`` pieces per page, and each page
        the segment touches takes one
        :meth:`~repro.storage.nvm.NVMDevice.merge_page` after the commit
        (or at its error), which books one program per piece.
        """
        if not count:
            return
        part = self.table[partition]
        stats = self.device.stats
        tel = self.telemetry
        metered = counter is not None and tel.enabled
        done = 0
        while done < count:
            pending = self.journal.records_appended - self._records_at_checkpoint
            take = min(count - done, max(1, CHECKPOINT_EVERY_RECORDS - pending))
            addresses, heads = part.reserve(length, take)
            merges: dict[int, list[tuple[int, bytes]]] = {}
            cursor = done * length
            for address in addresses:
                page, offset = divmod(address, PAGE_BYTES)
                end = cursor + length
                while cursor < end:
                    piece = min(PAGE_BYTES - offset, end - cursor)
                    merges.setdefault(page, []).append(
                        (offset, data[cursor : cursor + piece])
                    )
                    cursor += piece
                    page += 1
                    offset = 0
            self.last_written_page = (addresses[-1] + length - 1) // PAGE_BYTES
            writes0 = stats.page_writes
            try:
                commit(slice(done, done + take), addresses, heads)
            finally:
                for page, page_pieces in merges.items():
                    self.device.merge_page(page, page_pieces)
            for _ in addresses:
                busy0 = self.busy_ms
                self.busy_ms += step_ms
                if metered:
                    tel.advance_ms(self.busy_ms - busy0)
            if metered:
                self._meter(
                    counter, take, 0, stats.page_writes - writes0,
                    stats.dynamic_energy_nj,
                )
            done += take
            self._maybe_checkpoint()

    def _read_object(self, obj: _StoredObject) -> bytes:
        (data,) = self.device.read_spans(((obj.address, obj.length),))
        return data

    # -- signal windows -------------------------------------------------------------

    def _window_signatures(
        self,
        windows: np.ndarray,
        quantised: np.ndarray,
        signatures: np.ndarray | Sequence[Sequence[int]] | None,
        tuples: list[tuple[int, ...]] | None,
    ) -> tuple[np.ndarray, list[tuple[int, ...]]] | tuple[None, None]:
        """The cache entries of a batch: hashes of what reads return.

        One int64 row per window in a block, and the same rows as tuples
        of ``int``; ``(None, None)`` when the batch has no signatures.
        The caller's ``signatures`` hash ``windows`` as given, which is
        what :meth:`read_window` returns only when the rows are
        int16-exact: the block is then taken as it is, with ``tuples``
        when the caller holds them.  Otherwise the quantised rows are
        hashed here.
        """
        if signatures is not None and len(signatures) != len(quantised):
            raise StorageError("expected one signature per window")
        if quantised.shape[0] == 0:
            return None, None
        if signatures is not None and np.array_equal(quantised, windows):
            block = np.asarray(signatures, dtype=np.int64)
            if tuples is None:
                tuples = [tuple(row) for row in block.tolist()]
            return block, tuples
        if self.lsh is None:
            return None, None
        try:
            block = self.lsh.hash_windows(quantised.astype(float))
        except ConfigurationError:
            # window shorter than the hash geometry
            return None, None
        return block, [tuple(row) for row in block.tolist()]

    def _store_windows(
        self,
        keys: Sequence[tuple[int, int]],
        windows: np.ndarray,
        signatures: np.ndarray | Sequence[Sequence[int]] | None,
        tuples: list[tuple[int, ...]] | None = None,
    ) -> None:
        """Persist row ``i`` of ``(rows, samples)`` as window ``keys[i]``."""
        quantised = windows.astype("<i2")
        row_bytes = quantised.shape[1] * quantised.itemsize
        if keys and row_bytes > SC_BUFFER_BYTES:
            raise StorageError("window larger than the SC write buffer")
        hashes, cache = self._window_signatures(
            windows, quantised, signatures, tuples
        )
        width = 0 if hashes is None else hashes.shape[1]
        frames = new_frames(RecordType.WINDOW, _window_fields(width), len(keys))
        frames["electrode"] = [electrode for electrode, _ in keys]
        frames["window"] = [window_index for _, window_index in keys]
        frames["length"] = row_bytes
        if hashes is not None:
            frames["n_components"] = width
            frames["signature"] = hashes

        def commit(segment: slice, addresses: list[int], heads: list[int]) -> None:
            run = frames[segment]
            run["address"] = addresses
            run["head"] = heads
            self.journal.append_frames(run)
            stored = keys[segment]
            self._windows.update(zip(stored, [
                _StoredObject(address, row_bytes) for address in addresses
            ]))
            if hashes is not None:
                self._signatures.update(zip(stored, cache[segment]))
            else:
                for key in stored:
                    self._signatures.pop(key, None)

        self._append_objects(
            "signals", quantised.tobytes(), row_bytes, len(keys), commit,
            SC_LATENCY_FREE_MS + CHUNKED_WRITE_MS_PER_WINDOW,
            "storage.windows_stored",
        )

    def store_window(
        self,
        electrode: int,
        window_index: int,
        samples: np.ndarray,
        signature: Sequence[int] | None = None,
    ) -> None:
        """Persist one electrode-window (int16 samples) in chunked layout.

        The one-row :meth:`store_channel_windows`.

        Args:
            signature: the LSH signature of ``samples``, reused for the
                signature cache when the samples are int16-exact; see
                :meth:`store_channel_windows`.
        """
        samples = np.asarray(samples)
        if samples.ndim != 1:
            raise StorageError("expected a 1-D sample window")
        self._store_windows(
            [(electrode, window_index)],
            samples[None, :],
            None if signature is None else [signature],
        )

    def store_channel_windows(
        self,
        window_index: int,
        windows: np.ndarray,
        signatures: np.ndarray | Sequence[Sequence[int]] | None = None,
        *,
        tuples: list[tuple[int, ...]] | None = None,
    ) -> None:
        """Persist one window per electrode from ``(channels, samples)``.

        Samples are stored as int16.  With an :attr:`lsh` configured, each
        window's signature (of the int16 samples, i.e. exactly what
        :meth:`read_window` returns) is journaled with its record, so
        crash recovery restores the cache without rehashing.

        Args:
            signatures: the per-row LSH signatures of ``windows`` as given
                (the ingest hash): an int64 ``(channels, components)``
                block, or one tuple per row.  They are reused when the
                rows are int16-exact, which makes them the hashes of the
                stored samples; otherwise the quantised rows are hashed
                here.
            tuples: ``signatures`` as tuples of ``int``, when the caller
                already built them; the signature cache then holds these
                instead of converting the block again.
        """
        windows = np.asarray(windows)
        if windows.ndim != 2:
            raise StorageError("expected (channels, samples)")
        self._store_windows(
            [(electrode, window_index) for electrode in range(windows.shape[0])],
            windows,
            signatures,
            tuples,
        )

    def read_windows(
        self, keys: Iterable[tuple[int, int]]
    ) -> list[np.ndarray]:
        """Retrieve stored ``(electrode, window_index)`` windows, in order.

        Returns one int64 row per key.  Costs are booked per window and
        per page piece exactly as one :meth:`read_window` per key books
        them, and an error is raised at the same key with the same costs
        already booked; the device fetches each touched page once.  The
        registry is metered once, at the end or at the error.
        """
        objects: list[_StoredObject] = []
        missing = None
        for key in keys:
            obj = self._windows.get(key)
            if obj is None:
                missing = key
                break
            objects.append(obj)
        if missing is None and not objects:
            return []
        stats = self.device.stats
        tel = self.telemetry
        metered = tel.enabled
        reads0 = reads = stats.page_reads
        energy = stats.dynamic_energy_nj
        reader = self.device.read_spans(
            [(obj.address, obj.length) for obj in objects]
        )
        chunks = []
        try:
            for _ in objects:
                chunks.append(next(reader))
                busy0 = self.busy_ms
                self.busy_ms += SC_LATENCY_FREE_MS + CHUNKED_READ_MS_PER_WINDOW
                if metered:
                    tel.advance_ms(self.busy_ms - busy0)
                    reads, energy = stats.page_reads, stats.dynamic_energy_nj
        finally:
            if chunks and metered:
                self._meter(
                    "storage.windows_read", len(chunks), reads - reads0, 0,
                    energy,
                )
        if missing is not None:
            electrode, window_index = missing
            raise StorageError(
                f"no stored window (electrode={electrode}, index={window_index})"
            )
        samples = np.frombuffer(b"".join(chunks), dtype="<i2").astype(np.int64)
        lengths = [obj.length // 2 for obj in objects]
        if len(set(lengths)) == 1:
            return list(samples.reshape(len(objects), lengths[0]))
        return np.split(samples, np.cumsum(lengths)[:-1])

    def read_window(self, electrode: int, window_index: int) -> np.ndarray:
        """Retrieve a stored electrode-window (the one-key :meth:`read_windows`)."""
        return self.read_windows([(electrode, window_index)])[0]

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
        self,
        window_index: int,
        time_ms: float,
        signatures: np.ndarray | Sequence[Sequence[int]],
    ) -> None:
        """Persist one window's hashes for all electrodes.

        ``signatures`` is an int64 ``(electrodes, components)`` block or
        one tuple per electrode; each component is stored as ``<u2``, and
        one outside that range raises :class:`OverflowError`.
        """
        if len(signatures) == 0:
            raise StorageError("empty hash batch")
        if not isinstance(signatures, np.ndarray):
            width = len(signatures[0])
            if any(len(sig) != width for sig in signatures):
                raise StorageError("mixed signature widths in one batch")
        block = np.asarray(signatures, dtype=np.int64)
        if block.size and (block.min() < 0 or block.max() > 0xFFFF):
            raise OverflowError("hash component out of the uint16 range")
        data = block.astype("<u2").tobytes()
        n_signatures, n_components = block.shape

        def commit(_: slice, addresses: list[int], heads: list[int]) -> None:
            self.journal.append(RecordType.HASH_BATCH, _HASH_REC.pack(
                window_index, addresses[0], len(data), time_ms,
                n_signatures, n_components, heads[0],
            ))
            self._hashes[window_index] = _StoredObject(addresses[0], len(data))
            self._hash_meta[window_index] = (
                time_ms, n_signatures, n_components,
            )
            self._hash_times.append(time_ms)

        self._append_objects(
            "hashes", data, len(data), 1, commit, SC_LATENCY_FREE_MS,
            "storage.hash_batches_stored",
        )

    def read_hash_batch(self, window_index: int) -> list[tuple[int, ...]]:
        try:
            obj = self._hashes[window_index]
            _, n_signatures, n_components = self._hash_meta[window_index]
        except KeyError:
            raise StorageError(f"no stored hashes for window {window_index}") from None
        stats = self.device.stats
        busy0, reads0 = self.busy_ms, stats.page_reads
        data = self._read_object(obj)
        flat = np.frombuffer(data, dtype="<u2")
        self.busy_ms += SC_LATENCY_FREE_MS
        if self.telemetry.enabled:
            self.telemetry.advance_ms(self.busy_ms - busy0)
            self._meter(
                "storage.hash_batches_read", 1, stats.page_reads - reads0, 0,
                stats.dynamic_energy_nj,
            )
        return [
            tuple(int(x) for x in flat[i * n_components : (i + 1) * n_components])
            for i in range(n_signatures)
        ]

    def hash_batch_time(self, window_index: int) -> float | None:
        """When a stored hash batch was taken (ms), or ``None`` if absent."""
        meta = self._hash_meta.get(window_index)
        return None if meta is None else meta[0]

    def stored_hash_windows(self) -> list[int]:
        """All window indexes with a stored hash batch (sorted)."""
        return sorted(self._hashes)

    # -- application data (templates, weights) ----------------------------------------

    def store_appdata(self, key: str, data: bytes) -> None:
        """Persist a named application object (spike template, weights)."""
        if not data:
            raise StorageError("refusing to store an empty object")

        def commit(_: slice, addresses: list[int], heads: list[int]) -> None:
            encoded = key.encode("utf-8")
            self.journal.append(
                RecordType.APPDATA,
                struct.pack("<H", len(encoded)) + encoded
                + _APPDATA_REC.pack(addresses[0], len(data), heads[0]),
            )
            self._templates[key] = _StoredObject(addresses[0], len(data))

        self._append_objects(
            "appdata", data, len(data), 1, commit, SC_LATENCY_FREE_MS
        )

    def read_appdata(self, key: str) -> bytes:
        try:
            obj = self._templates[key]
        except KeyError:
            raise StorageError(f"no stored object {key!r}") from None
        self.busy_ms += SC_LATENCY_FREE_MS
        return self._read_object(obj)

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

        The metadata dicts, the last-written-page register, and the
        partition write heads are all SRAM state (every store call has
        flushed its write buffer by the time it returns); the NVM pages
        and the journal survive (NAND is non-volatile).
        """
        self._windows = {}
        self._signatures = {}
        self._hashes = {}
        self._hash_times = []
        self._hash_meta = {}
        self._templates = {}
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
