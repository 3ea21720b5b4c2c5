"""Reference storage write and read paths: one device call per page piece.

The definition the batched paths of
:class:`~repro.storage.controller.StorageController` must reproduce.
Every object is appended on its own: each page piece of a window is a
``program_page`` (erased page, 0xFF-padded) or a ``rewrite_range``
(programmed page), each read piece is one 8-byte-aligned
``NVMDevice.read``, each object reserves its address with the ring rule
on its own, and the registry is metered from the device's counter deltas
around each object.  A window's signature cache entry is
always the hash of its quantised samples, never a caller's hash.  It
never calls ``_append_objects``, ``Partition.reserve``,
``WriteAheadJournal.append_many``, ``merge_page`` with more than one
piece or ``read_spans`` with more than one span, so it does not call the
code it checks.  Slow by design; used only by tests.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.errors import ConfigurationError, StorageError
from repro.recovery.journal import RecordType
from repro.storage.controller import (
    _APPDATA_REC,
    _HASH_REC,
    _WINDOW_REC,
    SC_BUFFER_BYTES,
    SC_LATENCY_FREE_MS,
    StorageController,
    _StoredObject,
)
from repro.storage.layout import (
    CHUNKED_READ_MS_PER_WINDOW,
    CHUNKED_WRITE_MS_PER_WINDOW,
)
from repro.storage.nvm import PAGE_BYTES


def _counters(controller: StorageController) -> tuple[float, int, int]:
    stats = controller.device.stats
    return controller.busy_ms, stats.page_reads, stats.page_writes


def _meter(
    controller: StorageController, counter: str,
    before: tuple[float, int, int],
) -> None:
    busy0, reads0, writes0 = before
    tel = controller.telemetry
    stats = controller.device.stats
    tel.inc(counter)
    if stats.page_reads > reads0:
        tel.inc("storage.nvm_reads", stats.page_reads - reads0)
    if stats.page_writes > writes0:
        tel.inc("storage.nvm_writes", stats.page_writes - writes0)
    tel.advance_ms(controller.busy_ms - busy0)
    tel.set_gauge("storage.busy_ms", controller.busy_ms)
    tel.set_gauge("storage.nvm_energy_nj", stats.dynamic_energy_nj)


def _reserve(controller: StorageController, partition: str, n_bytes: int) -> int:
    """The ring rule one object at a time: skip a tail fragment the
    object would straddle, so it stays contiguous."""
    part = controller.table[partition]
    if n_bytes <= 0:
        raise StorageError("append size must be positive")
    if n_bytes > part.size_bytes:
        raise StorageError(
            f"object of {n_bytes} B larger than partition {part.name}"
        )
    offset = part.write_head % part.size_bytes
    if offset + n_bytes > part.size_bytes:
        part.write_head += part.size_bytes - offset
        offset = 0
    part.write_head += n_bytes
    return part.start_byte + offset


def _append_bytes(
    controller: StorageController, partition: str, data: bytes
) -> int:
    address = _reserve(controller, partition, len(data))
    page, offset = divmod(address, PAGE_BYTES)
    cursor = 0
    while cursor < len(data):
        take = min(PAGE_BYTES - offset, len(data) - cursor)
        chunk = data[cursor : cursor + take]
        if page in controller.device.programmed_pages:
            controller.device.rewrite_range(page, offset, chunk)
        else:
            padded = bytearray(b"\xff" * PAGE_BYTES)
            padded[offset : offset + take] = chunk
            controller.device.program_page(page, bytes(padded))
        controller.last_written_page = page
        cursor += take
        page += 1
        offset = 0
    return address


def _read_bytes(
    controller: StorageController, address: int, length: int
) -> bytes:
    page, offset = divmod(address, PAGE_BYTES)
    out = bytearray()
    while length > 0:
        take = min(PAGE_BYTES - offset, length)
        aligned_offset = offset - offset % 8
        aligned_len = -(-(offset + take - aligned_offset) // 8) * 8
        aligned_len = min(aligned_len, PAGE_BYTES - aligned_offset)
        data = controller.device.read(page, aligned_offset, aligned_len)
        out += data[offset - aligned_offset : offset - aligned_offset + take]
        length -= take
        page += 1
        offset = 0
    return bytes(out)


def oracle_store_window(
    controller: StorageController,
    electrode: int,
    window_index: int,
    samples: np.ndarray,
) -> None:
    samples = np.asarray(samples)
    if samples.ndim != 1:
        raise StorageError("expected a 1-D sample window")
    quantised = samples.astype("<i2")
    data = quantised.tobytes()
    if len(data) > SC_BUFFER_BYTES:
        raise StorageError("window larger than the SC write buffer")
    signature = None
    if controller.lsh is not None:
        try:
            signature = controller.lsh.hash_window(quantised.astype(float))
        except ConfigurationError:
            signature = None
    metered = controller.telemetry.enabled
    before = _counters(controller)
    address = _append_bytes(controller, "signals", data)
    sig_tail = (
        struct.pack("<H", 0)
        if signature is None
        else struct.pack(f"<H{len(signature)}i", len(signature), *signature)
    )
    controller.journal.append(
        RecordType.WINDOW,
        _WINDOW_REC.pack(
            electrode, window_index, address, len(data),
            controller.table["signals"].write_head,
        )
        + sig_tail,
    )
    key = (electrode, window_index)
    controller._windows[key] = _StoredObject(address, len(data))
    if signature is not None:
        controller._signatures[key] = tuple(int(c) for c in signature)
    else:
        controller._signatures.pop(key, None)
    controller.busy_ms += SC_LATENCY_FREE_MS + CHUNKED_WRITE_MS_PER_WINDOW
    if metered:
        _meter(controller, "storage.windows_stored", before)
    controller._maybe_checkpoint()


def oracle_store_channel_windows(
    controller: StorageController, window_index: int, windows: np.ndarray
) -> None:
    windows = np.asarray(windows)
    if windows.ndim != 2:
        raise StorageError("expected (channels, samples)")
    for electrode, row in enumerate(windows):
        oracle_store_window(controller, electrode, window_index, row)


def oracle_read_window(
    controller: StorageController, electrode: int, window_index: int
) -> np.ndarray:
    try:
        obj = controller._windows[(electrode, window_index)]
    except KeyError:
        raise StorageError(
            f"no stored window (electrode={electrode}, index={window_index})"
        ) from None
    before = _counters(controller)
    data = _read_bytes(controller, obj.address, obj.length)
    controller.busy_ms += SC_LATENCY_FREE_MS + CHUNKED_READ_MS_PER_WINDOW
    if controller.telemetry.enabled:
        _meter(controller, "storage.windows_read", before)
    return np.frombuffer(data, dtype="<i2").astype(np.int64)


def oracle_store_hash_batch(
    controller: StorageController,
    window_index: int,
    time_ms: float,
    signatures: list[tuple[int, ...]],
) -> None:
    if not signatures:
        raise StorageError("empty hash batch")
    n_components = len(signatures[0])
    if any(len(sig) != n_components for sig in signatures):
        raise StorageError("mixed signature widths in one batch")
    flat = [component for sig in signatures for component in sig]
    data = np.asarray(flat, dtype="<u2").tobytes()
    before = _counters(controller)
    address = _append_bytes(controller, "hashes", data)
    controller.journal.append(
        RecordType.HASH_BATCH,
        _HASH_REC.pack(
            window_index, address, len(data), time_ms,
            len(signatures), n_components,
            controller.table["hashes"].write_head,
        ),
    )
    controller._hashes[window_index] = _StoredObject(address, len(data))
    controller._hash_meta[window_index] = (
        time_ms, len(signatures), n_components,
    )
    controller._hash_times.append(time_ms)
    controller.busy_ms += SC_LATENCY_FREE_MS
    if controller.telemetry.enabled:
        _meter(controller, "storage.hash_batches_stored", before)
    controller._maybe_checkpoint()


def oracle_read_hash_batch(
    controller: StorageController, window_index: int
) -> list[tuple[int, ...]]:
    try:
        obj = controller._hashes[window_index]
        _, n_signatures, n_components = controller._hash_meta[window_index]
    except KeyError:
        raise StorageError(
            f"no stored hashes for window {window_index}"
        ) from None
    before = _counters(controller)
    flat = np.frombuffer(
        _read_bytes(controller, obj.address, obj.length), dtype="<u2"
    )
    controller.busy_ms += SC_LATENCY_FREE_MS
    if controller.telemetry.enabled:
        _meter(controller, "storage.hash_batches_read", before)
    return [
        tuple(int(x) for x in flat[i * n_components : (i + 1) * n_components])
        for i in range(n_signatures)
    ]


def oracle_store_appdata(
    controller: StorageController, key: str, data: bytes
) -> None:
    if not data:
        raise StorageError("refusing to store an empty object")
    address = _append_bytes(controller, "appdata", data)
    encoded = key.encode("utf-8")
    controller.journal.append(
        RecordType.APPDATA,
        struct.pack("<H", len(encoded)) + encoded
        + _APPDATA_REC.pack(
            address, len(data), controller.table["appdata"].write_head
        ),
    )
    controller._templates[key] = _StoredObject(address, len(data))
    controller.busy_ms += SC_LATENCY_FREE_MS
    controller._maybe_checkpoint()
