"""The per-implant NVM device model (SLC NAND, NVSim-calibrated).

Geometry and timing follow the paper's §5: 4 KB pages, 1 MB blocks, an
operation reads 8 bytes, writes a page, or erases a block; SLC NAND erase
takes 1.5 ms, page program 350 us; NVSim estimates 0.26 mW leakage and
918.809 / 1374 nJ dynamic energy per page read / write.

The device is functional (bytes in, bytes out) *and* metered (latency and
energy accounting), because both the applications and the scheduler need
it: applications store and retrieve real signals; the scheduler needs the
bandwidth numbers.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field

from repro.errors import StorageError, UncorrectableError
from repro.recovery.ecc import PageECC, compute_ecc, decode_page

#: Device geometry (paper §5).
PAGE_BYTES = 4 * 1024
BLOCK_BYTES = 1024 * 1024
PAGES_PER_BLOCK = BLOCK_BYTES // PAGE_BYTES
READ_UNIT_BYTES = 8

#: SLC NAND page read-to-register time (tR; paper §5 / industrial SLC
#: NAND datasheets).
READ_PAGE_MS = 0.025

#: NVSim energy estimates (paper §5).
LEAKAGE_MW = 0.26
READ_NJ_PER_PAGE = 918.809
WRITE_NJ_PER_PAGE = 1374.0

#: What an erased (or never-programmed) page reads as.
_ERASED_PAGE = b"\xff" * PAGE_BYTES

#: Default capacity: the paper integrates 128 GB per node.  The functional
#: model allocates lazily, so the configured capacity costs no memory.
DEFAULT_CAPACITY_BYTES = 128 * 1024**3


@dataclass
class NVMStats:
    """Operation counters and accounting for one device."""

    page_reads: int = 0
    page_writes: int = 0
    dynamic_energy_nj: float = 0.0


@dataclass
class NVMDevice:
    """A functional, metered NAND flash device.

    Pages must be erased (block-wise) before programming; reads address
    any 8-byte-aligned range within a programmed page.  Contents of
    unprogrammed pages read as 0xFF, like real NAND.

    Every programmed page carries SECDED Hamming ECC + CRC in a
    modelled spare area (always on: there is no ECC-off mode): reads
    verify and transparently correct single-bit rot, and multi-bit
    damage raises a
    typed :class:`~repro.errors.UncorrectableError` instead of silently
    returning garbage.  A page found uncorrectable stays *poisoned*
    (reads keep raising) until its block is erased or the page is
    rewritten in full, like a real device's grown-bad-page handling.

    The SECDED engine is hardware: NVSim's per-page costs already price
    it, so the software encode and decode below change no simulated
    time, only the simulator's.  The device therefore remembers which
    pages it has verified since their last mutation (the *clean set*):
    a page joins on every write (``merge_page``, and its one-piece forms
    ``program_page`` and ``rewrite_range``) and every clean or corrected
    decode, and leaves on ``inject_bit_rot`` and ``erase_block``, the
    only other ways stored bytes change.  Reads of a clean page skip the
    decode, and a clean page's spare words are by definition the
    encoding of its bytes, so they are not stored: ``_ecc`` holds words
    only for programmed pages outside the clean set.  They are encoded
    when rot first takes a clean page out of the set (from the bytes
    before the flips, which is what the engine wrote), kept through
    further rot, and dropped on the next write or clean or corrected
    decode.  Stored words, decode outcomes and every counter are exactly
    those of a device that encodes on every write and decodes on every
    access.
    """

    capacity_bytes: int = DEFAULT_CAPACITY_BYTES
    stats: NVMStats = field(init=False, default_factory=NVMStats)
    _pages: dict[int, bytes] = field(init=False, default_factory=dict)
    _programmed: set[int] = field(init=False, default_factory=set)
    #: spare words of the programmed pages outside the clean set
    _ecc: dict[int, PageECC] = field(
        init=False, default_factory=dict, repr=False
    )
    _poisoned: set[int] = field(init=False, default_factory=set, repr=False)
    #: pages whose bytes were verified (or written) since their last
    #: mutation, so their spare words are the encoding of their bytes
    _clean: set[int] = field(init=False, default_factory=set, repr=False)

    def __post_init__(self) -> None:
        if self.capacity_bytes < BLOCK_BYTES:
            raise StorageError("capacity must be at least one block")
        if self.capacity_bytes % BLOCK_BYTES:
            raise StorageError("capacity must be a whole number of blocks")

    # -- geometry helpers ---------------------------------------------------------

    @property
    def n_pages(self) -> int:
        return self.capacity_bytes // PAGE_BYTES

    @property
    def n_blocks(self) -> int:
        return self.capacity_bytes // BLOCK_BYTES

    def _check_page(self, page_index: int) -> None:
        if not 0 <= page_index < self.n_pages:
            raise StorageError(f"page {page_index} out of range")

    # -- operations -----------------------------------------------------------------

    def erase_block(self, block_index: int) -> None:
        """Erase one block; its pages become programmable again."""
        if not 0 <= block_index < self.n_blocks:
            raise StorageError(f"block {block_index} out of range")
        first = block_index * PAGES_PER_BLOCK
        for page in range(first, first + PAGES_PER_BLOCK):
            self._pages.pop(page, None)
            self._programmed.discard(page)
            self._ecc.pop(page, None)
            self._poisoned.discard(page)
            self._clean.discard(page)
        # erase energy folded into the write figure, as NVSim reports

    def program_page(self, page_index: int, data: bytes) -> None:
        """Program one full page (must be erased); short data is 0xFF-padded."""
        self._check_page(page_index)
        if page_index in self._programmed:
            raise StorageError(
                f"page {page_index} already programmed; erase its block first"
            )
        if len(data) > PAGE_BYTES:
            raise StorageError(f"page data {len(data)} B exceeds {PAGE_BYTES} B")
        self.merge_page(page_index, ((0, data.ljust(PAGE_BYTES, b"\xff")),))

    def merge_page(
        self, page_index: int, pieces: Sequence[tuple[int, bytes]]
    ) -> None:
        """Merge ordered ``(offset, chunk)`` pieces into one page at once.

        The SC's SRAM buffer folds every append that lands on a page into
        one program.  The result is exactly that of writing the pieces one
        at a time: an erased page is programmed by the first piece (the
        rest of it reads as 0xFF) and each later piece is a
        :meth:`rewrite_range`.  Only the first piece can verify the
        existing content, since every piece leaves the page clean; a
        poison is cleared by a piece that covers the whole page.  The
        merged page joins the clean set, so it needs no encode, and each
        piece books one program.
        """
        self._check_page(page_index)
        if not pieces:
            raise StorageError("no pieces to merge")
        for offset, chunk in pieces:
            if offset < 0 or not chunk or offset + len(chunk) > PAGE_BYTES:
                raise StorageError("rewrite range outside the page")
        programmed = page_index in self._programmed
        existing = self._pages[page_index] if programmed else _ERASED_PAGE
        first_offset, first_chunk = pieces[0]
        if (
            programmed and page_index not in self._clean
            and not (first_offset == 0 and len(first_chunk) == PAGE_BYTES)
        ):
            result = decode_page(existing, self._ecc[page_index])
            if result.corrected_bits:
                existing = result.data
            elif not result.ok:
                self._poisoned.add(page_index)
        buffer = bytearray(existing)
        whole_page = False
        for offset, chunk in pieces:
            buffer[offset : offset + len(chunk)] = chunk
            if len(chunk) == PAGE_BYTES:
                whole_page = True
        self._pages[page_index] = bytes(buffer)
        self._programmed.add(page_index)
        # a failed decode leaves its rotten bytes around the pieces; the
        # engine encodes the merged page as it is, so it is clean all the same
        self._ecc.pop(page_index, None)
        self._clean.add(page_index)
        if whole_page:
            self._poisoned.discard(page_index)
        stats = self.stats
        stats.page_writes += len(pieces)
        energy = stats.dynamic_energy_nj
        for _ in pieces:
            energy += WRITE_NJ_PER_PAGE
        stats.dynamic_energy_nj = energy

    def rewrite_range(self, page_index: int, offset: int, chunk: bytes) -> None:
        """In-place partial-page update through the SC's SRAM buffer.

        Models the controller's read-merge-write of an already-programmed
        page (erase-free, as the buffered append path does).  The merge
        runs through the ECC engine: existing content is verified first,
        single-bit rot corrected before it is re-committed, and damage
        beyond SECDED marks the page poisoned (the write itself still
        lands — the surrounding old bytes are what was lost).  A rewrite
        covering the whole page replaces everything and clears the poison.
        A page in the clean set skips the verify.  The one-piece
        :meth:`merge_page` of a programmed page.
        """
        self._check_page(page_index)
        if page_index not in self._programmed:
            raise StorageError(f"page {page_index} not programmed")
        self.merge_page(page_index, ((offset, chunk),))

    def read(self, page_index: int, offset: int, length: int) -> bytes:
        """Read ``length`` bytes at ``offset`` within one page.

        Offset and length must respect the 8-byte read unit.
        """
        self._check_page(page_index)
        if offset % READ_UNIT_BYTES or length % READ_UNIT_BYTES:
            raise StorageError(
                f"reads are {READ_UNIT_BYTES}-byte aligned "
                f"(offset={offset}, length={length})"
            )
        if offset < 0 or length <= 0 or offset + length > PAGE_BYTES:
            raise StorageError("read range outside the page")
        (data,) = self.read_spans(((page_index * PAGE_BYTES + offset, length),))
        return data

    def read_spans(
        self, spans: Iterable[tuple[int, int]]
    ) -> Iterator[bytes]:
        """Yield the bytes of each ``(address, length)`` span, in order.

        A span is read page by page in whole 8-byte units, and each piece
        books one page read (energy in proportion to its length) just as
        the matching :meth:`read` call would.  Booking and verification
        happen as a span is consumed, so a caller that stops at an error
        has booked exactly the pieces read so far.  The reader fetches and
        verifies each page once; do not write the device while a reader
        is open.
        """
        fetched: dict[int, bytes] = {}
        stats = self.stats
        for address, length in spans:
            page, offset = divmod(address, PAGE_BYTES)
            parts = []
            while length > 0:
                take = min(PAGE_BYTES - offset, length)
                aligned = offset - offset % READ_UNIT_BYTES
                units = -(-(offset + take - aligned) // READ_UNIT_BYTES)
                aligned_len = min(units * READ_UNIT_BYTES, PAGE_BYTES - aligned)
                self._check_page(page)
                stats.page_reads += 1
                stats.dynamic_energy_nj += READ_NJ_PER_PAGE * aligned_len / PAGE_BYTES
                content = fetched.get(page)
                if content is None:
                    content = fetched[page] = self._verify_on_access(
                        page, self._pages.get(page, _ERASED_PAGE)
                    )
                parts.append(content[offset : offset + take])
                length -= take
                page += 1
                offset = 0
            yield parts[0] if len(parts) == 1 else b"".join(parts)

    def _verify_on_access(self, page_index: int, page: bytes) -> bytes:
        """Run the SECDED engine on a page transfer; raise on bad pages."""
        if page_index not in self._programmed:
            return page
        if page_index in self._poisoned:
            raise UncorrectableError(page_index, "page poisoned")
        if page_index in self._clean:
            return page
        result = decode_page(page, self._ecc[page_index])
        if not result.ok:
            self._poisoned.add(page_index)
            raise UncorrectableError(page_index, result.detail)
        if result.corrected_bits:
            # scrub-on-read: commit the corrected content back
            self._pages[page_index] = result.data
        self._mark_clean(page_index)
        return result.data

    def check_page(self, page_index: int) -> tuple[int, bool]:
        """One scrubber visit: verify and repair a page in place.

        Books one page read.  Returns ``(bits_corrected, uncorrectable)``;
        an uncorrectable page is poisoned and subsequent reads raise.
        """
        self._check_page(page_index)
        if page_index not in self._programmed:
            return 0, False
        if page_index in self._poisoned:
            return 0, True
        self.stats.page_reads += 1
        self.stats.dynamic_energy_nj += READ_NJ_PER_PAGE
        if page_index in self._clean:
            return 0, False
        result = decode_page(self._pages[page_index], self._ecc[page_index])
        if not result.ok:
            self._poisoned.add(page_index)
            return 0, True
        if result.corrected_bits:
            self._pages[page_index] = result.data
        self._mark_clean(page_index)
        return result.corrected_bits, False

    def _mark_clean(self, page_index: int) -> None:
        """A decode came back clean or corrected: the page's bytes are
        what the engine encoded, so its words need not be kept."""
        del self._ecc[page_index]
        self._clean.add(page_index)

    @property
    def poisoned_pages(self) -> list[int]:
        """Pages known damaged beyond SECDED (sorted)."""
        return sorted(self._poisoned)

    # -- fault injection ----------------------------------------------------------

    @property
    def programmed_pages(self) -> list[int]:
        """Indices of currently-programmed pages (sorted)."""
        return sorted(self._programmed)

    def inject_bit_rot(self, page_index: int, bit_indices) -> int:
        """Flip stored bits in place — NAND retention/disturb errors.

        Only programmed pages rot (erased cells hold no charge to lose);
        injecting into an unprogrammed page is a no-op.  No latency or
        energy is booked: rot is physics, not an operation.

        Returns:
            The number of bits flipped.
        """
        from repro.network.channel import flip_bits

        self._check_page(page_index)
        if page_index not in self._programmed:
            return 0
        import numpy as np

        idx = np.atleast_1d(np.asarray(bit_indices, dtype=np.int64))
        if idx.size == 0:
            return 0
        page = self._pages[page_index]
        if page_index in self._clean:
            # the words the engine wrote describe the bytes before the
            # first flip; a page already out of the set keeps its words
            self._ecc[page_index] = compute_ecc(page)
            self._clean.discard(page_index)
        self._pages[page_index] = flip_bits(page, idx)
        return int(idx.size)

    # -- derived rates ------------------------------------------------------------

    @staticmethod
    def read_bandwidth_mbps() -> float:
        """Sequential read bandwidth of the device (Mbps)."""
        return 8 * PAGE_BYTES / (READ_PAGE_MS * 1e3)
