"""Crash-consistent recovery: ECC, journal replay, scrub, resync, failover."""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.apps.queries import QuerySpec
from repro.core.system import ScaloSystem
from repro.errors import StorageError, UncorrectableError
from repro.faults import health as health_module
from repro.network.channel import flip_bits
from repro.network.packet import PayloadKind
from repro.recovery.ecc import (
    PageECC,
    _syndrome_parity,
    compute_ecc,
    decode_page,
)
from repro.recovery.journal import (
    JournalRecord,
    RecordType,
    WriteAheadJournal,
)
from repro.recovery import resync as resync_module
from repro.recovery import scrub as scrub_module
from repro.recovery.scrub import Scrubber
from repro.storage.controller import StorageController
from repro.storage.nvm import (
    PAGE_BYTES,
    PAGES_PER_BLOCK,
    READ_NJ_PER_PAGE,
    WRITE_NJ_PER_PAGE,
    NVMDevice,
    NVMStats,
)
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.telemetry.scenarios import recovery_session
from repro.units import WINDOW_SAMPLES


def _page(seed=0, n=PAGE_BYTES):
    rng = np.random.default_rng(seed)
    return bytes(rng.integers(0, 256, n, dtype=np.uint8))


class TestPageECC:
    def test_clean_page_roundtrip(self):
        data = _page()
        result = decode_page(data, compute_ecc(data))
        assert result.ok
        assert result.corrected_bits == 0
        assert result.data == data

    def test_single_bit_corrected_at_any_position(self):
        data = _page(1)
        for bit in (0, 7, 8, 12345, 8 * PAGE_BYTES - 1):
            damaged = flip_bits(data, np.array([bit]))
            result = decode_page(damaged, compute_ecc(data))
            assert result.ok
            assert result.corrected_bits == 1
            assert result.data == data

    def test_double_bit_detected_uncorrectable(self):
        data = _page(2)
        damaged = flip_bits(data, np.array([3, 77]))
        result = decode_page(damaged, compute_ecc(data))
        assert not result.ok
        assert result.data == damaged  # handed back unmodified

    def test_triple_flip_not_silently_miscorrected(self):
        # odd-weight damage looks like a single-bit error to SECDED; the
        # CRC must veto the bogus correction instead of returning wrong data
        data = _page(3)
        damaged = flip_bits(data, np.array([5, 500, 5000]))
        result = decode_page(damaged, compute_ecc(data))
        assert not result.ok

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.binary(min_size=64, max_size=64),
        bit=st.integers(0, 8 * 64 - 1),
    )
    def test_single_flip_always_corrected(self, data, bit):
        damaged = flip_bits(data, np.array([bit]))
        result = decode_page(damaged, compute_ecc(data))
        assert result.ok
        assert result.data == data


def _reference_syndrome_parity(data: bytes) -> tuple[int, int]:
    """Oracle: XOR of the 1-based indices of all set bits, bit by bit."""
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    positions = np.flatnonzero(bits).astype(np.int64) + 1
    if positions.size == 0:
        return 0, 0
    return int(np.bitwise_xor.reduce(positions)), int(positions.size & 1)


def _reference_ecc(data: bytes) -> PageECC:
    return PageECC(*_reference_syndrome_parity(data), zlib.crc32(data))


class TestByteTableSyndrome:
    """The per-byte table syndrome against the bit-by-bit oracle."""

    @pytest.mark.parametrize("data", [
        _page(0), _page(1), _page(2),
        bytes(PAGE_BYTES), b"\xff" * PAGE_BYTES, b"",
        _page(3, 7), _page(4, 100), _page(5, 4095), _page(6, 4097),
        _page(7, 9000), b"\xff" * 9000,
    ], ids=lambda d: f"{len(d)}B")
    def test_matches_reference(self, data):
        assert _syndrome_parity(data) == _reference_syndrome_parity(data)

    def test_every_single_byte(self):
        for value in range(256):
            data = bytes([value])
            assert _syndrome_parity(data) == _reference_syndrome_parity(data)


class _PlainDevice:
    """Reference NVM device without fast paths.

    Every access decodes and every write encodes the whole page with the
    oracle syndrome, and every programmed page keeps its spare words: the
    behaviour the clean set and the on-demand encode of
    :class:`NVMDevice` must reproduce exactly.  Only the ECC path is
    modelled; range checks are left to the device under test.
    """

    def __init__(self) -> None:
        self.stats = NVMStats()
        self.pages: dict[int, bytes] = {}
        self.ecc: dict[int, PageECC] = {}
        self.poisoned: set[int] = set()

    def _book_write(self) -> None:
        self.stats.page_writes += 1
        self.stats.dynamic_energy_nj += WRITE_NJ_PER_PAGE

    def erase_block(self, block: int) -> None:
        first = block * PAGES_PER_BLOCK
        for page in range(first, first + PAGES_PER_BLOCK):
            self.pages.pop(page, None)
            self.ecc.pop(page, None)
            self.poisoned.discard(page)

    def program_page(self, page: int, data: bytes) -> None:
        if page in self.pages:
            raise StorageError(
                f"page {page} already programmed; erase its block first"
            )
        padded = data.ljust(PAGE_BYTES, b"\xff")
        self.pages[page] = padded
        self.ecc[page] = _reference_ecc(padded)
        self._book_write()

    def rewrite_range(self, page: int, offset: int, chunk: bytes) -> None:
        if page not in self.pages:
            raise StorageError(f"page {page} not programmed")
        existing = self.pages[page]
        whole_page = offset == 0 and len(chunk) == PAGE_BYTES
        if not whole_page:
            result = decode_page(existing, self.ecc[page])
            if result.corrected_bits:
                existing = result.data
            elif not result.ok:
                self.poisoned.add(page)
        merged = bytearray(existing)
        merged[offset:offset + len(chunk)] = chunk
        self.pages[page] = bytes(merged)
        self.ecc[page] = _reference_ecc(bytes(merged))
        if whole_page:
            self.poisoned.discard(page)
        self._book_write()

    def _decode(self, page: int):
        result = decode_page(self.pages[page], self.ecc[page])
        if result.corrected_bits:
            self.pages[page] = result.data
        elif not result.ok:
            self.poisoned.add(page)
        return result

    def read(self, page: int, offset: int, length: int) -> bytes:
        self.stats.page_reads += 1
        self.stats.dynamic_energy_nj += READ_NJ_PER_PAGE * length / PAGE_BYTES
        if page not in self.pages:
            return (b"\xff" * PAGE_BYTES)[offset:offset + length]
        if page in self.poisoned:
            raise UncorrectableError(page, "page poisoned")
        result = self._decode(page)
        if not result.ok:
            raise UncorrectableError(page, result.detail)
        return result.data[offset:offset + length]

    def check_page(self, page: int) -> tuple[int, bool]:
        if page not in self.pages:
            return 0, False
        if page in self.poisoned:
            return 0, True
        self.stats.page_reads += 1
        self.stats.dynamic_energy_nj += READ_NJ_PER_PAGE
        result = self._decode(page)
        return result.corrected_bits, not result.ok

    def inject_bit_rot(self, page: int, bits) -> int:
        if page not in self.pages:
            return 0
        self.pages[page] = flip_bits(self.pages[page], np.asarray(bits))
        return len(bits)


def _spare_words(device: NVMDevice, page: int) -> PageECC:
    """The spare-area words a device's engine holds for ``page``."""
    if page in device._ecc:
        return device._ecc[page]
    return compute_ecc(device._pages[page])


#: two pages in block 0 and one in block 1, so erases hit a subset
_SM_PAGES = (0, 1, PAGES_PER_BLOCK)


def _outcome(call):
    """A call's return value, or the error it raised (type and text)."""
    try:
        return "ok", call()
    except (StorageError, UncorrectableError) as exc:
        return type(exc).__name__, str(exc)


class DeviceEquivalence(RuleBasedStateMachine):
    """The fast device against :class:`_PlainDevice`, step by step.

    Random program, partial and whole-page rewrite, multi-piece merge,
    read, scrub visit, 1-3-bit rot and erase sequences must leave
    identical page bytes, spare-area words, returned data and errors,
    counters and poisoned sets.
    """

    @initialize()
    def setup(self):
        self.fast = NVMDevice(capacity_bytes=2 * 1024 * 1024)
        self.plain = _PlainDevice()

    def _both(self, name, *args):
        fast = _outcome(lambda: getattr(self.fast, name)(*args))
        plain = _outcome(lambda: getattr(self.plain, name)(*args))
        assert fast == plain, (name, args)

    @rule(page=st.sampled_from(_SM_PAGES), seed=st.integers(0, 2**16),
          length=st.integers(1, PAGE_BYTES))
    def program(self, page, seed, length):
        self._both("program_page", page, _page(seed, length))

    @rule(page=st.sampled_from(_SM_PAGES), seed=st.integers(0, 2**16),
          offset=st.integers(0, PAGE_BYTES - 1),
          length=st.integers(1, 512), whole=st.booleans())
    def rewrite(self, page, seed, offset, length, whole):
        if whole:
            offset, length = 0, PAGE_BYTES
        length = min(length, PAGE_BYTES - offset)
        self._both("rewrite_range", page, offset, _page(seed, length))

    @rule(page=st.sampled_from(_SM_PAGES), seed=st.integers(0, 2**16),
          cuts=st.lists(st.integers(1, PAGE_BYTES - 1), max_size=7,
                        unique=True),
          keep=st.lists(st.booleans(), min_size=8, max_size=8))
    def merge(self, page, seed, cuts, keep):
        """Ordered pieces of one page: a tiling, or a subset of one."""
        edges = [0, *sorted(cuts), PAGE_BYTES]
        data = _page(seed)
        tiling = [(start, data[start:end]) for start, end in zip(edges, edges[1:])]
        pieces = [piece for piece, kept in zip(tiling, keep) if kept] or tiling
        fast = _outcome(lambda: self.fast.merge_page(page, pieces))

        def plain():
            for offset, chunk in pieces:
                if page in self.plain.pages:
                    self.plain.rewrite_range(page, offset, chunk)
                else:
                    padded = bytearray(b"\xff" * PAGE_BYTES)
                    padded[offset:offset + len(chunk)] = chunk
                    self.plain.program_page(page, bytes(padded))

        assert fast == _outcome(plain)

    @rule(page=st.sampled_from(_SM_PAGES),
          start=st.integers(0, PAGE_BYTES // 8 - 1),
          words=st.integers(1, 64))
    def read(self, page, start, words):
        words = min(words, PAGE_BYTES // 8 - start)
        self._both("read", page, 8 * start, 8 * words)

    @rule(page=st.sampled_from(_SM_PAGES))
    def check(self, page):
        self._both("check_page", page)

    @rule(page=st.sampled_from(_SM_PAGES),
          bits=st.lists(st.integers(0, 8 * PAGE_BYTES - 1),
                        min_size=1, max_size=3, unique=True))
    def rot(self, page, bits):
        self._both("inject_bit_rot", page, bits)

    @rule(block=st.sampled_from((0, 1)))
    def erase(self, block):
        self._both("erase_block", block)

    @invariant()
    def same_state(self):
        assert self.fast._pages == self.plain.pages
        # words are stored only off the clean set; a clean page's words
        # are the encoding of its bytes
        assert set(self.fast._ecc) == self.fast._programmed - self.fast._clean
        assert {
            page: _spare_words(self.fast, page)
            for page in self.fast.programmed_pages
        } == self.plain.ecc
        assert self.fast.stats == self.plain.stats
        assert self.fast.poisoned_pages == sorted(self.plain.poisoned)


DeviceEquivalence.TestCase.settings = settings(
    max_examples=200, stateful_step_count=30, deadline=None
)
TestDeviceEquivalence = DeviceEquivalence.TestCase


class TestCleanSet:
    def test_poisoned_clean_page_still_raises(self):
        device = NVMDevice(capacity_bytes=2 * 1024 * 1024)
        device.program_page(0, _page(0))
        device.inject_bit_rot(0, [3, 77])
        # the merge finds double-bit damage and poisons the page, and the
        # rewrite re-encodes it, so it rejoins the verified-clean set
        device.rewrite_range(0, 64, b"new bytes")
        assert device.poisoned_pages == [0]
        assert 0 in device._clean
        with pytest.raises(UncorrectableError):
            device.read(0, 0, 8)
        assert device.check_page(0) == (0, True)
        assert device.poisoned_pages == [0]

    def test_failed_merge_encodes_the_rotten_bytes(self):
        # the words from before the rot must not outlive the merge: the
        # page is encoded as it actually is, rotten bytes included
        device = NVMDevice(capacity_bytes=2 * 1024 * 1024)
        device.program_page(0, _page(2))
        device.inject_bit_rot(0, [3, 77])
        device.rewrite_range(0, 1024, b"chunk")
        assert 0 not in device._ecc and 0 in device._clean
        assert _spare_words(device, 0) == _reference_ecc(device._pages[0])
        rotten = device._pages[0]
        device.inject_bit_rot(0, [9])
        assert device._ecc[0] == _reference_ecc(rotten)

    def test_rot_invalidates_a_verified_page(self):
        device = NVMDevice(capacity_bytes=2 * 1024 * 1024)
        data = _page(1)
        device.program_page(0, data)
        assert device.read(0, 0, PAGE_BYTES) == data
        device.inject_bit_rot(0, [12345])
        assert device.read(0, 0, PAGE_BYTES) == data
        # the read wrote the correction back: a scrub finds nothing left
        assert device.check_page(0) == (0, False)
        assert device._pages[0] == data

    def test_rot_twice_before_access_is_uncorrectable(self):
        # the second rot must keep the words of the unrotted page: words
        # encoded from the once-rotten bytes would "correct" the page to
        # them and return wrong data without an error
        device = NVMDevice(capacity_bytes=2 * 1024 * 1024)
        data = _page(4)
        device.program_page(0, data)
        device.inject_bit_rot(0, [100])
        device.inject_bit_rot(0, [2000])
        assert device._ecc[0] == _reference_ecc(data)
        with pytest.raises(UncorrectableError, match="double-bit error"):
            device.read(0, 0, 8)
        assert device.poisoned_pages == [0]
        with pytest.raises(UncorrectableError, match="page poisoned"):
            device.read(0, 0, 8)
        assert device.check_page(0) == (0, True)

    def test_corrected_read_then_rot(self):
        # a corrected read rejoins the clean set and drops the words; the
        # next rot encodes the corrected bytes afresh
        device = NVMDevice(capacity_bytes=2 * 1024 * 1024)
        data = _page(5)
        device.program_page(0, data)
        device.inject_bit_rot(0, [77])
        assert device.read(0, 0, PAGE_BYTES) == data
        assert 0 not in device._ecc and 0 in device._clean
        device.inject_bit_rot(0, [31000])
        assert device._ecc[0] == _reference_ecc(data)
        assert device.check_page(0) == (1, False)
        assert device.read(0, 0, PAGE_BYTES) == data
        assert device._ecc == {}
        assert device.check_page(0) == (0, False)


class TestWriteAheadJournal:
    def test_append_replay_roundtrip(self):
        journal = WriteAheadJournal()
        records = [
            JournalRecord(RecordType.WINDOW, b"w0"),
            JournalRecord(RecordType.HASH_BATCH, b"h0"),
            JournalRecord(RecordType.APPDATA, b""),
        ]
        for record in records:
            journal.append(record.rtype, record.payload)
        replayed = journal.replay()
        assert replayed.checkpoint is None
        assert replayed.records == records
        assert not replayed.torn

    def test_checkpoint_truncates_log(self):
        journal = WriteAheadJournal()
        journal.append(RecordType.WINDOW, b"before")
        journal.write_checkpoint(b"state-0")
        journal.append(RecordType.WINDOW, b"after")
        replayed = journal.replay()
        assert replayed.checkpoint == b"state-0"
        assert [r.payload for r in replayed.records] == [b"after"]

    def test_torn_checkpoint_falls_back_to_previous_slot(self):
        journal = WriteAheadJournal()
        journal.write_checkpoint(b"old")
        journal.write_checkpoint(b"new")
        image = journal.snapshot()
        slots = list(image.checkpoints)
        slots[image.active] = slots[image.active][:-3]  # torn mid-write
        torn = WriteAheadJournal.from_image(
            type(image)(image.log, (slots[0], slots[1]), image.active)
        )
        assert torn.checkpoint_payload() == b"old"

    def test_torn_tail_recovers_consistent_prefix(self):
        journal = WriteAheadJournal()
        journal.append(RecordType.WINDOW, b"first")
        journal.append(RecordType.WINDOW, b"second")
        whole = journal.snapshot()
        first_only = WriteAheadJournal()
        first_only.append(RecordType.WINDOW, b"first")
        tail = len(whole.log) - len(first_only.snapshot().log)
        for cut in range(1, tail + 1):
            replayed = WriteAheadJournal.from_image(whole.torn(cut)).replay()
            # removing the entire frame leaves a clean log; any partial
            # tear is detected
            assert replayed.torn == (cut < tail)
            assert [r.payload for r in replayed.records] == [b"first"]

    def test_discard_torn_tail_keeps_future_appends_reachable(self):
        journal = WriteAheadJournal()
        journal.append(RecordType.WINDOW, b"kept")
        journal.append(RecordType.WINDOW, b"torn-away")
        recovered = WriteAheadJournal.from_image(journal.snapshot().torn(2))
        assert recovered.discard_torn_tail() > 0
        recovered.append(RecordType.WINDOW, b"post-crash")
        replayed = recovered.replay()
        assert not replayed.torn
        assert [r.payload for r in replayed.records] == [b"kept", b"post-crash"]


def _controller():
    return StorageController(device=NVMDevice(capacity_bytes=32 * 1024 * 1024))


def _apply_op(controller, rng, op):
    if op[0] == "window":
        _, electrode, window, n_samples = op
        controller.store_window(
            electrode, window,
            rng.integers(-1000, 1000, n_samples).astype(np.int16),
        )
    elif op[0] == "hashes":
        _, window, n_signatures = op
        controller.store_hash_batch(
            window, float(window), [(1, 2, 3)] * n_signatures
        )
    elif op[0] == "appdata":
        _, key, size = op
        controller.store_appdata(key, bytes(range(size % 251)) or b"\x00")
    else:
        controller.checkpoint()


_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("window"), st.integers(0, 3), st.integers(0, 5),
                  st.integers(1, 64)),
        st.tuples(st.just("hashes"), st.integers(0, 9), st.integers(1, 6)),
        st.tuples(st.just("appdata"),
                  st.sampled_from(["tpl-a", "tpl-b", "weights"]),
                  st.integers(1, 100)),
        st.tuples(st.just("checkpoint")),
    ),
    min_size=1,
    max_size=8,
)


class TestCrashConsistency:
    """Replay from the journal must equal the pre-crash state, byte for
    byte, for a crash cut at *every* record boundary and mid-frame."""

    @settings(max_examples=30, deadline=None)
    @given(ops=_OPS)
    def test_replay_matches_state_at_every_boundary(self, ops):
        controller = _controller()
        rng = np.random.default_rng(0)
        snapshots = [(controller.journal.snapshot(), controller.state_digest())]
        for op in ops:
            _apply_op(controller, rng, op)
            snapshots.append(
                (controller.journal.snapshot(), controller.state_digest())
            )
        for image, digest in snapshots:
            crashed = StorageController(device=controller.device)
            crashed.journal = WriteAheadJournal.from_image(image)
            crashed.recover()
            assert crashed.state_digest() == digest

    @settings(max_examples=30, deadline=None)
    @given(ops=_OPS)
    def test_mid_frame_tear_lands_on_previous_boundary(self, ops):
        controller = _controller()
        rng = np.random.default_rng(0)
        snapshots = [(controller.journal.snapshot(), controller.state_digest())]
        for op in ops:
            _apply_op(controller, rng, op)
            snapshots.append(
                (controller.journal.snapshot(), controller.state_digest())
            )
        for (prev_image, prev_digest), (image, _) in zip(
            snapshots, snapshots[1:]
        ):
            grown = len(image.log) - len(prev_image.log)
            if grown <= 0:  # a checkpoint op truncated the log
                continue
            for cut in (1, grown // 2, grown):
                crashed = StorageController(device=controller.device)
                crashed.journal = WriteAheadJournal.from_image(image.torn(cut))
                report = crashed.recover()
                assert crashed.state_digest() == prev_digest
                assert report.torn_tail == (cut < grown)

    def test_recovered_controller_serves_reads(self):
        controller = _controller()
        samples = np.arange(WINDOW_SAMPLES, dtype=np.int16)
        controller.store_window(0, 0, samples)
        controller.store_hash_batch(0, 0.0, [(7, 8, 9), (10, 11, 12)])
        controller.store_appdata("tpl", b"template-bytes")
        crashed = StorageController(device=controller.device)
        crashed.journal = WriteAheadJournal.from_image(
            controller.journal.snapshot()
        )
        report = crashed.recover()
        assert report.records_replayed == 3
        assert not report.checkpoint_used
        np.testing.assert_array_equal(crashed.read_window(0, 0), samples)
        assert crashed.read_hash_batch(0) == [(7, 8, 9), (10, 11, 12)]
        assert crashed.read_appdata("tpl") == b"template-bytes"


class TestScrubber:
    def _device(self, n_pages=10, seed=0):
        device = NVMDevice(capacity_bytes=2 * 1024 * 1024)
        rng = np.random.default_rng(seed)
        for page in range(n_pages):
            device.program_page(
                page, bytes(rng.integers(0, 256, PAGE_BYTES, dtype=np.uint8))
            )
        return device

    def test_corrects_all_single_bit_rot(self):
        device = self._device()
        pristine = [device.read(p, 0, PAGE_BYTES) for p in range(10)]
        for page in range(10):
            device.inject_bit_rot(
                page, np.array([(page * 97) % (8 * PAGE_BYTES)])
            )
        report = Scrubber(device).full_pass()
        assert report.pages_scanned == 10
        assert report.bits_corrected == 10
        assert report.uncorrectable_pages == 0
        assert [device.read(p, 0, PAGE_BYTES) for p in range(10)] == pristine

    def test_round_budget_patrols_all_pages(self, monkeypatch):
        monkeypatch.setattr(scrub_module, "PAGES_PER_ROUND", 2)
        device = self._device(n_pages=5)
        device.inject_bit_rot(4, np.array([17]))
        scrubber = Scrubber(device)
        reports = [scrubber.step() for _ in range(3)]
        assert [r.pages_scanned for r in reports] == [2, 2, 2]
        assert sum(r.bits_corrected for r in reports) == 1

    def test_double_bit_rot_poisons_page(self):
        device = self._device(n_pages=2)
        device.inject_bit_rot(1, np.array([0, 9]))
        report = Scrubber(device).full_pass()
        assert report.uncorrectable_pages == 1
        assert device.poisoned_pages == [1]
        with pytest.raises(UncorrectableError):
            device.read(1, 0, 8)
        device.read(0, 0, 8)  # the healthy page still serves
        # a whole-page rewrite re-encodes the ECC and clears the poison
        device.rewrite_range(1, 0, bytes(PAGE_BYTES))
        assert device.read(1, 0, 8) == bytes(8)
        assert device.poisoned_pages == []

    def test_telemetry_counters(self):
        telemetry = Telemetry()
        device = self._device(n_pages=3)
        device.inject_bit_rot(0, np.array([5]))
        Scrubber(device, telemetry=telemetry).full_pass()
        assert telemetry.registry.counter("recovery.scrub_pages") == 3
        assert telemetry.registry.counter("recovery.scrub_corrected") == 1


def _ingest_exchange(system, rng, window):
    batch = system.ingest(
        rng.normal(
            size=(system.n_nodes, system.electrodes_per_node, WINDOW_SAMPLES)
        ).astype(np.float32)
    )
    for src in system.alive_node_ids:
        if batch[src]:
            system.broadcast_hashes(src, batch[src], seq=window)
    for node in system.alive_node_ids:
        system.drain_inbox(node)


class TestResync:
    def test_pull_and_push_after_reboot(self, monkeypatch):
        monkeypatch.setattr(resync_module, "RESYNC_HORIZON", 4)
        system = ScaloSystem(
            n_nodes=3, electrodes_per_node=2, seed=0, arq=True
        )
        rng = np.random.default_rng(0)
        for window in range(3):
            _ingest_exchange(system, rng, window)
        system.fail_node(1)
        _ingest_exchange(system, rng, 3)  # exchanged while node 1 is dark
        report = system.recover_node(1)
        assert report.replay.records_replayed > 0
        resync = report.resync
        assert resync.peers == [0, 2]
        # pulled windows 0-3 from both peers (so neither failed);
        # pushed its own 0-2 back
        assert resync.batches_pulled == 8
        assert resync.batches_pushed == 3
        inbox = system.drain_inbox(1)
        pulled_seqs = {
            p.header.seq for p in inbox if p.header.kind == PayloadKind.HASHES
        }
        assert 3 in pulled_seqs  # the window it missed is now local
        # and the fleet keeps going: the rebooted node re-joins ingest at
        # its own (node-local) next window index
        _ingest_exchange(system, rng, 4)
        assert system.nodes[1].storage.stored_hash_windows() == [0, 1, 2, 3]

    def test_resync_without_peers_is_empty(self):
        system = ScaloSystem(n_nodes=1, electrodes_per_node=2, seed=0)
        rng = np.random.default_rng(0)
        system.ingest(
            rng.normal(size=(1, 2, WINDOW_SAMPLES)).astype(np.float32)
        )
        system.fail_node(0)
        report = system.recover_node(0)
        assert report.resync.peers == []
        assert report.resync.batches_pulled == 0


class TestFailover:
    def test_lowest_id_takeover_restores_query_seq(self):
        system = ScaloSystem(
            n_nodes=3, electrodes_per_node=2, seed=0, arq=True
        )
        manager = system.attach_failover()
        assert manager.coordinator == 0
        rng = np.random.default_rng(0)
        for window in range(2):
            _ingest_exchange(system, rng, window)
        spec = QuerySpec(kind="q3", time_range_ms=100.0)
        system.query_distributed(spec, (0, 2))
        seq_before = system._query_seq
        system.fail_node(0)
        event = manager.step()
        assert event is not None
        assert (event.old_coordinator, event.new_coordinator) == (0, 1)
        assert event.restored_query_seq == seq_before
        assert system._query_seq == seq_before
        result = system.query_distributed(spec, (0, 2))
        assert result.coverage == pytest.approx(2 / 3)
        assert manager.coordinator == 1
        assert manager.history == [event]
        assert manager.step() is None  # stable: no repeated handover

    def test_health_belief_drives_election(self, monkeypatch):
        from repro.faults.health import HealthMonitor

        monkeypatch.setattr(health_module, "MISS_THRESHOLD", 2)
        system = ScaloSystem(n_nodes=3, electrodes_per_node=2, seed=0)
        health = HealthMonitor(3)
        manager = system.attach_failover(health=health)
        assert manager.coordinator == 0
        # the monitor loses faith in node 0 even though it never crashed:
        # failover follows the detector, not ground truth
        health.heartbeat(1, 1)
        health.heartbeat(2, 1)
        assert health.tick(1) == [0]
        event = manager.step()
        assert event is not None
        assert event.new_coordinator == 1


class TestRecoverySessionEndToEnd:
    """The PR's acceptance scenario: rot + mid-cycle crash + reboot, then
    a Q3 answer identical to the no-fault twin at full coverage."""

    @staticmethod
    def _canonical(rows):
        return [
            (r.node, r.electrode, r.window_index, r.samples.tobytes())
            for r in rows
        ]

    def test_repaired_run_matches_no_fault_run(self):
        faulted_tel = Telemetry()
        _, faulted = recovery_session(faulted_tel, seed=3, faults=True)
        clean_tel = Telemetry()
        _, clean = recovery_session(clean_tel, seed=3, faults=False)

        assert faulted.coverage == 1.0
        assert not faulted.degraded
        assert self._canonical(faulted.rows) == self._canonical(clean.rows)

        reg = faulted_tel.registry
        assert reg.counter("recovery.scrub_corrected") > 0
        assert reg.counter("recovery.records_replayed") > 0
        assert reg.counter("recovery.resync_batches_pulled") > 0
        assert reg.counter("recovery.nodes_recovered") == 1

        # one complete recovery trace: the span exists and its children
        # (replay, resync per peer) joined the same trace
        (recovery_span,) = [s for s in faulted_tel.tracer.spans if s.name == "recovery"]
        for child in ("replay", "resync"):
            spans = [s for s in faulted_tel.tracer.spans if s.name == child]
            assert spans, f"missing {child} span"
            assert all(s.trace_id == recovery_span.trace_id for s in spans)

    def test_faulted_run_is_deterministic(self):
        tel_a, tel_b = Telemetry(), Telemetry()
        _, run_a = recovery_session(tel_a, seed=5, faults=True)
        _, run_b = recovery_session(tel_b, seed=5, faults=True)
        assert self._canonical(run_a.rows) == self._canonical(run_b.rows)
        assert list(tel_a.registry.counters()) == list(tel_b.registry.counters())

    def test_clean_run_unaffected_by_instrumentation(self):
        _, instrumented = recovery_session(Telemetry(), seed=1, faults=False)
        _, bare = recovery_session(NULL_TELEMETRY, seed=1, faults=False)
        assert self._canonical(instrumented.rows) == self._canonical(bare.rows)


class TestEvalVariant:
    def test_crash_recovery_coverage(self, monkeypatch):
        from repro.eval import resilience

        monkeypatch.setattr(resilience, "CRASH_WINDOWS", 5)
        monkeypatch.setattr(resilience, "CRASH_SEED", 1)
        result = resilience.crash_recovery_coverage(n_nodes=4)
        assert result.before.degraded
        assert result.coverage_before == pytest.approx(0.75)
        assert not result.after.degraded
        assert result.coverage_after == 1.0
        assert result.records_replayed > 0
        assert result.batches_pulled > 0
        assert result.scrub_bits_corrected >= 1
        # the recovered node answers for every window, pre- and post-crash
        recovered_rows = {
            r.window_index for r in result.after.rows if r.node == 1
        }
        assert recovered_rows == set(range(5))
