"""Tests for the NVM device, layout, partitions, and storage controller."""

import numpy as np
import pytest

from repro.errors import StorageError
from repro.storage.controller import SC_BUFFER_BYTES, StorageController
from repro.storage.layout import (
    CHUNKED_READ_MS_PER_WINDOW,
    INTERLEAVED_READ_MS_PER_WINDOW,
    read_cost_ms,
    write_cost_ms,
)
from repro.storage.nvm import (
    BLOCK_BYTES,
    NVMDevice,
    PAGE_BYTES,
    PAGES_PER_BLOCK,
)
from repro.storage.partitions import PartitionTable


@pytest.fixture()
def device():
    return NVMDevice(capacity_bytes=16 * 1024 * 1024)


class TestNVMDevice:
    def test_program_and_read(self, device):
        device.program_page(3, b"hello")
        assert device.read(3, 0, 8)[:5] == b"hello"

    def test_unprogrammed_reads_ff(self, device):
        assert device.read(0, 0, 8) == b"\xff" * 8

    def test_program_twice_requires_erase(self, device):
        device.program_page(0, b"a")
        with pytest.raises(StorageError):
            device.program_page(0, b"b")
        device.erase_block(0)
        device.program_page(0, b"b")

    def test_erase_clears_whole_block(self, device):
        device.program_page(0, b"a")
        device.program_page(PAGES_PER_BLOCK - 1, b"z")
        device.erase_block(0)
        assert device.read(0, 0, 8) == b"\xff" * 8

    def test_read_alignment_enforced(self, device):
        with pytest.raises(StorageError):
            device.read(0, 3, 8)
        with pytest.raises(StorageError):
            device.read(0, 0, 5)

    def test_stats_accumulate(self, device):
        device.program_page(0, b"x")
        device.read(0, 0, PAGE_BYTES)
        assert device.stats.page_writes == 1
        assert device.stats.page_reads == 1
        assert device.stats.dynamic_energy_nj > 0

    def test_bad_capacity_rejected(self):
        with pytest.raises(StorageError):
            NVMDevice(capacity_bytes=BLOCK_BYTES // 2)


class TestLayout:
    def test_paper_read_advantage(self):
        chunked = read_cost_ms(120, 96, chunked=True)
        interleaved = read_cost_ms(120, 96, chunked=False)
        assert chunked == pytest.approx(CHUNKED_READ_MS_PER_WINDOW)
        assert interleaved == pytest.approx(INTERLEAVED_READ_MS_PER_WINDOW)
        assert interleaved / chunked == pytest.approx(10.0)

    def test_paper_write_tradeoff(self):
        assert write_cost_ms(120, chunked=True) / write_cost_ms(
            120, chunked=False
        ) == pytest.approx(5.0)


class TestPartitions:
    def test_default_fractions_cover_device(self):
        table = PartitionTable(capacity_bytes=64 * 1024 * 1024)
        assert set(table.partitions) == {"signals", "hashes", "appdata", "mc"}
        sizes = [p.size_bytes for p in table.partitions.values()]
        assert all(s % BLOCK_BYTES == 0 for s in sizes)

    def test_ring_wraps_over_oldest(self):
        table = PartitionTable(capacity_bytes=64 * 1024 * 1024)
        partition = table["mc"]
        (first,), _ = partition.reserve(partition.size_bytes - 10, 1)
        assert first == partition.start_byte
        (second,), (head,) = partition.reserve(100, 1)  # forces wrap
        assert second == partition.start_byte
        assert head == partition.write_head == partition.size_bytes + 100

    def test_oversized_object_rejected(self):
        table = PartitionTable(capacity_bytes=64 * 1024 * 1024)
        with pytest.raises(StorageError):
            table["mc"].reserve(table["mc"].size_bytes + 1, 1)

    def test_bad_fractions_rejected(self):
        with pytest.raises(StorageError):
            PartitionTable(64 * 1024 * 1024, fractions={"signals": 1.0})


class TestStorageController:
    @pytest.fixture()
    def controller(self):
        return StorageController(device=NVMDevice(capacity_bytes=32 * 1024 * 1024))

    def test_window_roundtrip(self, controller, rng):
        window = rng.integers(-1000, 1000, 120)
        controller.store_window(5, 7, window)
        assert (controller.read_window(5, 7) == window).all()

    def test_channel_windows_roundtrip(self, controller, rng):
        windows = rng.integers(-100, 100, size=(4, 120))
        controller.store_channel_windows(0, windows)
        for e in range(4):
            assert (controller.read_window(e, 0) == windows[e]).all()

    def test_missing_window_rejected(self, controller):
        with pytest.raises(StorageError):
            controller.read_window(0, 99)

    def test_hash_batch_roundtrip(self, controller):
        sigs = [(1, 2, 3), (4, 5, 6)]
        controller.store_hash_batch(0, 4.0, sigs)
        assert controller.read_hash_batch(0) == sigs

    def test_hash_batch_time(self, controller):
        controller.store_hash_batch(3, 12.5, [(1, 2)])
        assert controller.hash_batch_time(3) == 12.5
        assert controller.hash_batch_time(4) is None

    def test_appdata_roundtrip(self, controller):
        controller.store_appdata("template:3", b"\x01\x02\x03")
        assert controller.read_appdata("template:3") == b"\x01\x02\x03"
        assert controller.appdata_keys() == ["template:3"]

    def test_empty_appdata_rejected(self, controller):
        with pytest.raises(StorageError):
            controller.store_appdata("k", b"")

    def test_mixed_signature_widths_rejected(self, controller):
        for ragged in ([(1, 2), (3,)], [np.array([1, 2]), np.array([3])]):
            with pytest.raises(
                StorageError, match="^mixed signature widths in one batch$"
            ):
                controller.store_hash_batch(0, 0.0, ragged)

    @pytest.mark.parametrize("form", [list, np.asarray],
                             ids=["array-rows", "block"])
    def test_hash_batch_block_or_tuples_store_alike(self, form):
        sigs = [(0, 65_535, 7), (1, 2, 3)]
        stored = []
        for signatures in (sigs, form(np.array(sigs, dtype=np.int64))):
            controller = StorageController(device=NVMDevice(16 * BLOCK_BYTES))
            controller.store_hash_batch(0, 4.0, signatures)
            assert controller.read_hash_batch(0) == sigs
            stored.append((controller.state_digest(),
                           controller.journal.snapshot(),
                           controller.device._pages))
        assert stored[0] == stored[1]

    @pytest.mark.parametrize("empty", [[], np.empty((0, 3), dtype=np.int64)],
                             ids=["list", "block"])
    def test_empty_hash_batch_rejected(self, controller, empty):
        with pytest.raises(StorageError, match="^empty hash batch$"):
            controller.store_hash_batch(0, 0.0, empty)

    @pytest.mark.parametrize("bad", [70_000, 65_536, -1])
    @pytest.mark.parametrize("form", ["list", "block"])
    def test_component_outside_uint16_raises(self, controller, bad, form):
        sigs = [(1, 2), (bad, 3)]
        if form == "block":
            sigs = np.array(sigs, dtype=np.int64)
        digest = controller.state_digest()
        with pytest.raises(OverflowError):
            controller.store_hash_batch(0, 0.0, sigs)
        assert controller.state_digest() == digest
        assert controller.stored_hash_windows() == []

    def test_busy_time_accumulates(self, controller, rng):
        before = controller.busy_ms
        controller.store_window(0, 0, rng.integers(0, 10, 120))
        controller.read_window(0, 0)
        assert controller.busy_ms > before

    def test_oversized_window_rejected(self, controller):
        with pytest.raises(StorageError):
            controller.store_window(0, 0, np.zeros(SC_BUFFER_BYTES))
