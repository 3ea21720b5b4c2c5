"""Batched storage I/O: one merge per page, one read per page, hash once.

The batched controller paths (``store_channel_windows``, ``read_windows``
and their one-row forms) must leave exactly the state of the per-window
reference in ``tests/storage_oracle.py``: the same metadata digest, NVM
bytes, ECC words, counters, registry and simulated clock, and the same
errors at the same points.  The ingest hash is reused only for
int16-exact rows, so a cached signature is always the hash of what
``read_window`` returns.
"""

import copy
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.node import ScaloNode
from repro.core.system import ScaloSystem
from repro.errors import StorageError, UncorrectableError
from repro.hashing.lsh import LSHFamily
from repro.recovery.journal import WriteAheadJournal
from repro.storage.controller import (
    _WINDOW_REC,
    CHECKPOINT_EVERY_RECORDS,
    SC_BUFFER_BYTES,
    StorageController,
)
from repro.storage.nvm import BLOCK_BYTES, PAGE_BYTES, NVMDevice
from repro.storage.partitions import DEFAULT_FRACTIONS
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.units import WINDOW_SAMPLES
from tests.minhash_oracle import oracle_hash_window
from tests.storage_oracle import (
    _reserve,
    oracle_read_hash_batch,
    oracle_read_window,
    oracle_store_appdata,
    oracle_store_channel_windows,
    oracle_store_hash_batch,
    oracle_store_window,
)

#: four one-block partitions, so a few batches of long windows wrap the
#: signals ring
SMALL_CAPACITY = 4 * BLOCK_BYTES
SMALL_FRACTIONS = {"signals": 0.25, "hashes": 0.25, "appdata": 0.25, "mc": 0.25}
#: lengths from shorter than the hash geometry to the whole SC buffer,
#: and one past it
LENGTHS = (16, 120, 300, 2500, 6000, SC_BUFFER_BYTES // 2, SC_BUFFER_BYTES // 2 + 4)
KINDS = ("exact", "fraction", "wrap", "negzero", "inf")
LSH = LSHFamily.for_measure("dtw")


def _rows(kind: str, seed: int, width: int, length: int) -> np.ndarray:
    """``(width, length)`` sample rows of one value kind."""
    rng = np.random.default_rng(seed)
    rows = (rng.standard_normal((width, length)).cumsum(axis=1) * 300).round()
    if kind == "fraction":
        rows[:, ::3] += 0.5
    elif kind == "wrap":
        rows[:, ::5] = 40_000.0
        rows[:, 1::7] = -40_000.0
    elif kind == "negzero":
        rows[:, ::4] = -0.0
    elif kind == "inf":
        rows[:, ::6] = np.inf
        rows[:, 1::9] = -np.inf
    return rows


def _outcome(call):
    """A call's result, or the error it raised (type and text)."""
    try:
        with np.errstate(invalid="ignore", over="ignore"):
            result = call()
    except (StorageError, UncorrectableError) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(result, list) and result and isinstance(result[0], np.ndarray):
        return "ok", [(row.dtype.str, row.tolist()) for row in result]
    if isinstance(result, np.ndarray):
        return "ok", (result.dtype.str, result.tolist())
    return "ok", result


def _controller(live: bool = True) -> StorageController:
    # the controller lays out its own table from the default split (on
    # build and again on recovery), which the four-block device only fits
    # split evenly
    with mock.patch.dict(DEFAULT_FRACTIONS, SMALL_FRACTIONS):
        controller = StorageController(
            device=NVMDevice(capacity_bytes=SMALL_CAPACITY), lsh=LSH
        )
    controller.telemetry = Telemetry() if live else NULL_TELEMETRY
    return controller


#: each batched entry point and its per-window reference
_ORACLE = {
    "store_channel_windows": (
        lambda c, index, rows, signatures=None:
            oracle_store_channel_windows(c, index, rows)
    ),
    "store_window": oracle_store_window,
    "store_hash_batch": oracle_store_hash_batch,
    "store_appdata": oracle_store_appdata,
    "read_windows": (
        lambda c, keys: [oracle_read_window(c, *key) for key in keys]
    ),
    "read_window": oracle_read_window,
    "read_hash_batch": oracle_read_hash_batch,
}


class _Pair:
    """A batched controller and a per-window reference, driven alike.

    ``live`` attaches a live telemetry handle to each, so every stored
    object is metered; without it the controllers take the unmetered
    path, which books SC latency without the registry.
    """

    def __init__(self, live: bool = True) -> None:
        self.batched = _controller(live)
        self.reference = _controller(live)

    def both(self, name: str, *args):
        batched = _outcome(lambda: getattr(self.batched, name)(*args))
        reference = _outcome(lambda: _ORACLE[name](self.reference, *args))
        assert batched == reference, name
        return batched

    def rot(self, page: int, bits: list[int]) -> None:
        for controller in (self.batched, self.reference):
            controller.device.inject_bit_rot(page, bits)

    def crash(self, cut: int) -> None:
        reports = []
        for controller in (self.batched, self.reference):
            image = controller.journal.snapshot().torn(cut)
            controller.journal = WriteAheadJournal.from_image(image)
            with mock.patch.dict(DEFAULT_FRACTIONS, SMALL_FRACTIONS):
                reports.append(controller.recover())
        assert reports[0] == reports[1]

    def check(self) -> None:
        new, ref = self.batched, self.reference
        assert new.state_digest() == ref.state_digest()
        assert new.last_written_page == ref.last_written_page
        assert new.busy_ms == ref.busy_ms
        assert new.journal.snapshot() == ref.journal.snapshot()
        assert new.device.stats == ref.device.stats
        assert new.device._pages == ref.device._pages
        assert new.device._ecc == ref.device._ecc
        assert new.device.poisoned_pages == ref.device.poisoned_pages
        if not new.telemetry.enabled:
            return
        assert (new.telemetry.registry.snapshot()
                == ref.telemetry.registry.snapshot())
        for cells in ("_counters", "_gauges"):  # key order: first-write order
            assert (list(getattr(new.telemetry.registry, cells))
                    == list(getattr(ref.telemetry.registry, cells)))
        assert new.telemetry.clock.now_us == ref.telemetry.clock.now_us


class StorageEquivalence(RuleBasedStateMachine):
    """The batched controller against the per-window reference.

    Random-width batches of every value kind (with and without the
    ingest hash), single windows, hash batches, app data, batched and
    single reads (missing keys included), 1- and 2-bit rot, and crashes
    with torn journal tails, over one-block partitions that wrap and a
    journal filled so that the first checkpoint falls inside a batch,
    with live or null telemetry.
    """

    @initialize(headroom=st.integers(1, 5), live=st.booleans())
    def setup(self, headroom, live):
        self.pair = _Pair(live)
        for i in range(CHECKPOINT_EVERY_RECORDS - headroom):
            self.pair.both("store_appdata", f"k{i}", bytes([i % 251]) * (1 + i % 40))

    @rule(index=st.integers(0, 7), width=st.integers(0, 6),
          length=st.sampled_from(LENGTHS), kind=st.sampled_from(KINDS),
          seed=st.integers(0, 2**16), ingest_hash=st.booleans())
    def store_batch(self, index, width, length, kind, seed, ingest_hash):
        rows = _rows(kind, seed, width, length)
        with np.errstate(invalid="ignore", over="ignore"):
            signatures = LSH.hash_channels(rows) if ingest_hash else None
        self.pair.both("store_channel_windows", index, rows, signatures)

    @rule(electrode=st.integers(0, 6), index=st.integers(0, 7),
          length=st.sampled_from(LENGTHS), kind=st.sampled_from(KINDS),
          seed=st.integers(0, 2**16))
    def store_one(self, electrode, index, length, kind, seed):
        (row,) = _rows(kind, seed, 1, length)
        self.pair.both("store_window", electrode, index, row)

    @rule(index=st.integers(0, 7), n_sig=st.integers(1, 20),
          n_comp=st.integers(1, 8), seed=st.integers(0, 2**16))
    def store_hashes(self, index, n_sig, n_comp, seed):
        rng = np.random.default_rng(seed)
        sigs = [tuple(int(c) for c in row)
                for row in rng.integers(0, 2**16, (n_sig, n_comp))]
        self.pair.both("store_hash_batch", index, float(index), sigs)

    @rule(key=st.text("abc", min_size=1, max_size=3),
          length=st.integers(1, 3 * PAGE_BYTES))
    def store_appdata(self, key, length):
        data = bytes(range(256)) * (length // 256) + bytes(length % 256)
        self.pair.both("store_appdata", key, data)

    @rule(keys=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)),
                        max_size=12))
    def read_batch(self, keys):
        self.pair.both("read_windows", keys)

    @rule(electrode=st.integers(0, 7), index=st.integers(0, 7))
    def read_one(self, electrode, index):
        self.pair.both("read_window", electrode, index)

    @rule(index=st.integers(0, 7))
    def read_hashes(self, index):
        self.pair.both("read_hash_batch", index)

    @precondition(lambda self: self.pair.batched.device.programmed_pages)
    @rule(data=st.data(), flips=st.integers(1, 2))
    def rot(self, data, flips):
        pages = self.pair.batched.device.programmed_pages
        page = data.draw(st.sampled_from(pages))
        bits = data.draw(st.lists(st.integers(0, 8 * PAGE_BYTES - 1),
                                  min_size=flips, max_size=flips, unique=True))
        self.pair.rot(page, bits)

    @rule(cut=st.sampled_from((0, 1, 5, 30, 200)))
    def crash(self, cut):
        self.pair.crash(cut)

    @invariant()
    def same_state(self):
        if hasattr(self, "pair"):
            self.pair.check()


StorageEquivalence.TestCase.settings = settings(
    max_examples=40, stateful_step_count=25, deadline=None
)
TestStorageEquivalence = StorageEquivalence.TestCase


def _walk(seed: int, width: int, length: int) -> np.ndarray:
    return _rows("exact", seed, width, length)


def _fill_journal(pair: _Pair, records: int) -> None:
    """Append ``records`` one-byte app objects through both controllers."""
    for i in range(records):
        pair.both("store_appdata", f"k{i}", b"x")


class TestBatchEdges:
    """The cases a random walk reaches too rarely to rely on."""

    @pytest.mark.parametrize("live", [True, False], ids=["metered", "null"])
    @pytest.mark.parametrize("blob", [0, 5], ids=["first", "last"])
    def test_checkpoint_on_a_batch_edge(self, blob, live):
        # the checkpoint falls on the batch's first or last WINDOW record
        pair = _Pair(live)
        _fill_journal(pair, CHECKPOINT_EVERY_RECORDS - 1 - blob)
        pair.both("store_channel_windows", 0, _walk(0, 6, 300))
        pair.check()
        journal = pair.batched.journal
        assert journal.records_appended == CHECKPOINT_EVERY_RECORDS + 5 - blob
        assert len(journal.replay().records) == 5 - blob
        pair.crash(0)
        pair.check()
        pair.both("store_channel_windows", 1, _walk(1, 6, 300))
        pair.check()

    def test_hash_batch_is_the_checkpoint_record(self):
        pair = _Pair()
        _fill_journal(pair, CHECKPOINT_EVERY_RECORDS - 1)
        pair.both("store_hash_batch", 0, 0.0, [(1, 2, 3), (4, 5, 6)])
        pair.check()
        replayed = pair.batched.journal.replay()
        assert replayed.checkpoint is not None and replayed.records == []
        pair.crash(0)
        pair.check()
        pair.both("read_hash_batch", 0)
        pair.check()

    @pytest.mark.parametrize("live", [True, False], ids=["metered", "null"])
    def test_ring_wrap_on_the_first_blob_of_a_batch(self, live):
        pair = _Pair(live)
        length = 6001  # samples; 12 002 B does not divide the ring
        row_bytes = 2 * length
        part = pair.batched.table["signals"]
        index = 0
        # fill the ring until a window no longer fits before its end
        while part.size_bytes - part.write_head % part.size_bytes >= row_bytes:
            room = part.size_bytes - part.write_head % part.size_bytes
            width = min(6, room // row_bytes)
            pair.both("store_channel_windows", index, _walk(index, width, length))
            index += 1
        head = part.write_head
        assert head % part.size_bytes  # a tail fragment to skip
        pair.both("store_channel_windows", index, _walk(index, 6, length))
        pair.check()
        # the batch's first blob skipped the tail and opened the next lap
        assert pair.batched._windows[(0, index)].address == part.start_byte
        assert part.write_head == (
            head + part.size_bytes - head % part.size_bytes + 6 * row_bytes
        )
        pair.both("read_windows", [(e, index) for e in range(6)])
        pair.check()

    @pytest.mark.parametrize("fill", [0, CHECKPOINT_EVERY_RECORDS - 3],
                             ids=["log-only", "checkpoint-inside"])
    def test_torn_crash_at_every_record_boundary_of_a_batch(self, fill):
        width = 6

        def pair_with_batch() -> _Pair:
            pair = _Pair()
            _fill_journal(pair, fill)
            pair.both("store_channel_windows", 0, _walk(0, 2, 300))
            pair.both("store_channel_windows", 1, _walk(1, width, 300))
            return pair

        # the batch's records in the log, after any checkpoint; one size
        logged = [
            record.payload
            for record in pair_with_batch().batched.journal.replay().records
            if _WINDOW_REC.unpack_from(record.payload)[1] == 1
        ]
        assert len(logged) == (width if not fill else width - 1)
        (payload_bytes,) = {len(payload) for payload in logged}
        frame = 7 + payload_bytes + 4  # header, payload, CRC
        for lost in range(len(logged) + 1):
            pair = pair_with_batch()
            pair.crash(lost * frame)
            pair.check()
            kept = [key for key in pair.batched.stored_windows() if key[1] == 1]
            assert kept == [(electrode, 1) for electrode in range(width - lost)]
            pair.both("store_channel_windows", 2, _walk(2, width, 300))
            pair.check()

    def test_checkpoint_inside_a_batch(self):
        pair = _Pair()
        for i in range(CHECKPOINT_EVERY_RECORDS - 3):
            pair.both("store_appdata", f"k{i}", b"x")
        pair.both("store_channel_windows", 0, _walk(0, 6, 300))
        pair.check()
        assert pair.batched.journal.records_appended == CHECKPOINT_EVERY_RECORDS + 3
        pair.crash(0)
        pair.check()

    def test_signals_ring_wraps_inside_a_batch(self):
        pair = _Pair()
        length = SC_BUFFER_BYTES // 2 - 3  # odd byte offsets, page-crossing
        part = pair.batched.table["signals"]
        index = 0
        while part.write_head <= part.size_bytes:  # until it wraps
            pair.both("store_channel_windows", index, _walk(index, 6, length))
            pair.check()
            index += 1
        pair.both("read_windows", pair.batched.stored_windows())
        pair.check()

    def test_torn_rewind_onto_a_poisoned_page(self):
        pair = _Pair()
        per_page = PAGE_BYTES // 512  # 256-sample windows tile a page
        pair.both("store_channel_windows", 0, _walk(0, per_page, 256))
        log_before = pair.batched.journal.snapshot().log
        pair.both("store_channel_windows", 1, _walk(1, per_page, 256))
        page = pair.batched.last_written_page
        pair.rot(page, [5, 900])
        reads = pair.both("read_windows", [(0, 0), (0, 1), (1, 1)])
        assert reads[0] == "UncorrectableError"
        assert pair.batched.device.poisoned_pages == [page]
        # tear every record of the second batch: its pages become free
        # space again, so the next batch rewrites the poisoned page in
        # pieces that together (but none alone) cover it
        log = pair.batched.journal.snapshot().log
        pair.crash(len(log) - len(log_before) - 1)
        pair.check()
        # the signals partition starts at device byte 0
        assert pair.batched.table["signals"].write_head == page * PAGE_BYTES
        pair.both("store_channel_windows", 2, _walk(2, per_page, 256))
        pair.check()
        assert pair.batched.device.poisoned_pages == [page]
        pair.both("read_windows", [(0, 2)])

class TestReserve:
    @settings(max_examples=80, deadline=None)
    @given(steps=st.lists(
        st.tuples(
            st.one_of(st.sampled_from((1, PAGE_BYTES, BLOCK_BYTES // 3,
                                       BLOCK_BYTES)),
                      st.integers(1, BLOCK_BYTES)),
            st.integers(0, 40),
        ),
        max_size=8,
    ))
    def test_matches_the_one_object_ring_rule(self, steps):
        # counts up to 40 of objects up to a whole ring: several laps and
        # several skipped tail fragments in one call
        batched, reference = _controller(), _controller()
        for n_bytes, count in steps:
            addresses, heads = batched.table["hashes"].reserve(n_bytes, count)
            expected = []
            for _ in range(count):
                address = _reserve(reference, "hashes", n_bytes)
                expected.append((address, reference.table["hashes"].write_head))
            assert list(zip(addresses, heads)) == expected
            assert (batched.table["hashes"].write_head
                    == reference.table["hashes"].write_head)


# --- hash once ------------------------------------------------------------------


class TestHashOnce:
    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(KINDS), seed=st.integers(0, 2**16),
           width=st.integers(1, 6), length=st.sampled_from((120, 300, 640)))
    def test_cached_signature_hashes_what_reads_return(
        self, kind, seed, width, length
    ):
        controller = StorageController(
            device=NVMDevice(capacity_bytes=16 * BLOCK_BYTES), lsh=LSH
        )
        rows = _rows(kind, seed, width, length)
        with np.errstate(invalid="ignore", over="ignore"):
            controller.store_channel_windows(0, rows, LSH.hash_channels(rows))
        stored = np.stack(
            [controller.read_window(e, 0) for e in range(width)]
        ).astype(float)
        expected = [tuple(row) for row in LSH.hash_windows(stored).tolist()]
        assert [controller.window_signature(e, 0) for e in range(width)] == expected
        assert expected[0] == oracle_hash_window(LSH, stored[0])

    def test_int16_exact_batch_is_hashed_once(self):
        node = ScaloNode(node_id=0, n_electrodes=4)
        rows = _rows("exact", 3, 4, WINDOW_SAMPLES)
        with mock.patch.object(
            LSHFamily, "hash_windows", autospec=True,
            side_effect=LSHFamily.hash_windows,
        ) as spy:
            node.ingest_window(rows, LSH.hash_channels(rows))
        assert spy.call_count == 1
        assert spy.call_args.args[1].shape == rows.shape

    def test_non_integral_batch_is_rehashed_quantised(self):
        node = ScaloNode(node_id=0, n_electrodes=4)
        rows = _rows("fraction", 3, 4, WINDOW_SAMPLES)
        with mock.patch.object(
            LSHFamily, "hash_windows", autospec=True,
            side_effect=LSHFamily.hash_windows,
        ) as spy:
            node.ingest_window(rows, LSH.hash_channels(rows))
        assert spy.call_count == 2
        quantised = spy.call_args_list[1].args[1]
        assert np.array_equal(quantised, rows.astype("<i2").astype(float))


class TestFleetIngest:
    """``ScaloSystem.ingest`` hashes the fleet in one batch; each node
    then stores its slice as one int64 block.  The reference hashes node
    by node with ``hash_channels`` and hands ``ingest_window`` the
    tuples; both must leave the same storage, journal, NVM and
    recent-hash state and return the same ``int`` tuples."""

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(("exact", "fraction")),
        dead=st.sets(st.integers(0, 3), max_size=4),
        n_windows=st.integers(1, 3),
    )
    def test_fleet_batch_matches_per_node_hashing(
        self, seed, kind, dead, n_windows
    ):
        fleet, reference = (ScaloSystem(n_nodes=4, electrodes_per_node=3)
                            for _ in range(2))
        for system in (fleet, reference):
            for node_id in sorted(dead):
                system.fail_node(node_id)
        shape = (n_windows, 4, 3, WINDOW_SAMPLES)
        batches = _rows(kind, seed, n_windows * 12, shape[-1]).reshape(shape)
        alive = 4 - len(dead)
        for windows in batches:
            with mock.patch.object(
                LSHFamily, "hash_windows", autospec=True,
                side_effect=LSHFamily.hash_windows,
            ) as spy:
                got = fleet.ingest(windows)
            # one fleet hash, plus one hash of the quantised rows per node
            # that stored non-integral samples
            rehashes = alive if kind == "fraction" else 0
            assert spy.call_count == (1 if alive else 0) + rehashes
            expected = [
                []
                if node.node_id in dead
                else node.ingest_window(
                    windows[node.node_id],
                    node.lsh.hash_channels(windows[node.node_id]),
                )
                for node in reference.nodes
            ]
            assert got == expected
            assert all(
                type(signature) is tuple
                and all(type(component) is int for component in signature)
                for batch in got for signature in batch
            )
        for mine, theirs in zip(fleet.nodes, reference.nodes):
            assert mine.storage.state_digest() == theirs.storage.state_digest()
            assert (mine.storage.journal.snapshot()
                    == theirs.storage.journal.snapshot())
            assert mine.storage.device._pages == theirs.storage.device._pages
            assert mine.storage.device.stats == theirs.storage.device.stats
            assert mine.storage.busy_ms == theirs.storage.busy_ms
            assert mine.hash_store._records == theirs.hash_store._records
            assert (mine.hash_store.recent(mine.now_ms)
                    == theirs.hash_store.recent(theirs.now_ms))
            assert mine.now_ms == theirs.now_ms
            for key in mine.storage.stored_windows():
                assert (mine.storage.window_signature(*key)
                        == theirs.storage.window_signature(*key))


# --- read_windows ---------------------------------------------------------------


class TestReadWindows:
    @pytest.fixture()
    def controller(self):
        controller = StorageController(
            device=NVMDevice(capacity_bytes=16 * BLOCK_BYTES)
        )
        rng = np.random.default_rng(0)
        for index in range(3):
            controller.store_channel_windows(
                index, rng.integers(-500, 500, (4, 300))
            )
        return controller

    def test_rows_in_key_order(self, controller):
        keys = [(3, 2), (0, 0), (3, 2), (1, 1)]
        rows = controller.read_windows(keys)
        assert [row.dtype for row in rows] == [np.int64] * 4
        for key, row in zip(keys, rows):
            assert np.array_equal(row, controller.read_window(*key))

    def test_mixed_lengths(self, controller):
        controller.store_window(9, 0, np.arange(50))
        rows = controller.read_windows([(9, 0), (0, 0)])
        assert rows[0].tolist() == list(range(50))
        assert len(rows[1]) == 300

    def test_empty(self, controller):
        reads = controller.device.stats.page_reads
        assert controller.read_windows([]) == []
        assert controller.device.stats.page_reads == reads

    def test_empty_books_nothing_on_a_live_handle(self, controller):
        tel = controller.telemetry = Telemetry()
        controller.read_windows([(0, 0), (3, 2)])
        stats = copy.copy(controller.device.stats)
        busy, now_us = controller.busy_ms, tel.clock.now_us
        snapshot = tel.snapshot()
        with mock.patch.object(NVMDevice, "read_spans") as reader:
            for keys in ([], (), iter([])):
                assert controller.read_windows(keys) == []
        reader.assert_not_called()
        assert controller.device.stats == stats
        assert controller.busy_ms == busy
        assert tel.clock.now_us == now_us
        assert tel.snapshot() == snapshot

    def test_missing_key_raises_after_earlier_reads(self, controller):
        stats = controller.device.stats
        reads = stats.page_reads
        with pytest.raises(StorageError, match="electrode=7"):
            controller.read_windows([(0, 0), (1, 0), (7, 0), (2, 0)])
        assert stats.page_reads == reads + 2

    def test_one_page_read_per_window_piece(self, controller):
        # a 600 B window starting near a page end spans two pages
        stats = controller.device.stats
        reads = stats.page_reads
        controller.read_windows(controller.stored_windows())
        pieces = sum(
            (obj.address + obj.length - 1) // PAGE_BYTES
            - obj.address // PAGE_BYTES + 1
            for obj in controller._windows.values()
        )
        assert stats.page_reads == reads + pieces
