"""SECDED Hamming ECC + CRC for NVM pages.

Real SLC NAND stores per-page ECC in a spare ("out-of-band") area and
runs a hardware SECDED engine on every transfer; NVSim's access costs
already include it.  This module is the functional half: a Hamming
syndrome plus an overall parity bit over the page's bits, and a CRC32
over the page's bytes as an end-to-end integrity check.

The syndrome is the XOR of the 1-based indices of all set bits — the
classic construction in which a single flipped bit at index ``p``
perturbs the syndrome by exactly ``p``:

* syndrome delta 0, parity delta 0 → clean (CRC re-checked anyway);
* parity delta 1, syndrome delta in range → single-bit error at
  ``delta - 1``; corrected, then verified against the CRC (which
  catches the odd-weight ≥3-flip patterns SECDED miscorrects);
* parity delta 0, syndrome delta ≠ 0 → double-bit error, uncorrectable.

Bit indexing is MSB-first (bit 0 is the top bit of byte 0), matching
:func:`repro.network.channel.flip_bits` so injected rot and correction
agree on positions.

The syndrome is computed a byte at a time from 256-entry tables rather
than bit by bit.  Bits 0-6 of byte ``i`` sit at indices ``8i + k + 1``
with ``k + 1 < 8``, so together they contribute the XOR of their
``k + 1`` values plus ``8i`` when their count is odd; bit 7 contributes
``8(i + 1)``; parity is the XOR of per-byte popcount parities.  Both
words are linear over GF(2), so :func:`update_ecc` re-encodes a
partial-page rewrite from the changed bytes alone:
``syndrome ^= syn_at(old_chunk, offset) ^ syn_at(new_chunk, offset)``,
which is the syndrome of the flipped bits ``old_chunk ^ new_chunk``.
That is only sound when the stored words describe the old bytes, i.e.
the page was verified clean (or corrected) first; a page with
uncorrectable damage must be re-encoded in full with
:func:`compute_ecc`.  The CRC is always recomputed over the whole page.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

#: ECC geometry: a 4 KB page has 32768 bit positions, so 1-based indices
#: fit 16 bits — the spare-area cost is 16 syndrome bits + 1 parity bit
#: + 32 CRC bits per page (49 bits, well under a real NAND's 64-224 B OOB).
SYNDROME_BITS = 16


@dataclass(frozen=True)
class PageECC:
    """The spare-area words stored alongside one page."""

    syndrome: int
    parity: int
    crc: int


@dataclass(frozen=True)
class DecodeResult:
    """Outcome of one page verification."""

    data: bytes
    corrected_bits: int  # 0 or 1
    ok: bool  # False → uncorrectable damage
    detail: str = ""


#: Where the parity bit rides in the per-byte table words, above any
#: syndrome a byte string shorter than 2**45 bytes can produce.
_PARITY_SHIFT = 48


def _byte_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    values = np.arange(256, dtype=np.int64)
    low = np.zeros(256, dtype=np.int64)  # XOR of k + 1 over set bits 0-6
    odd = np.zeros(256, dtype=np.int64)  # parity of bits 0-6
    for k in range(7):
        bit = (values >> (7 - k)) & 1
        low ^= bit * (k + 1)
        odd ^= bit
    bit7 = values & 1
    # all-ones masks select the byte's position terms
    return low | ((odd ^ bit7) << _PARITY_SHIFT), -odd, -bit7


_LOW, _ODD_MASK, _BIT7_MASK = _byte_tables()


def _syndrome_parity(
    data: bytes | np.ndarray, offset: int = 0
) -> tuple[int, int]:
    """Syndrome and parity of ``data`` placed ``offset`` bytes into a page."""
    values = np.frombuffer(data, dtype=np.uint8)
    if values.size == 0:
        return 0, 0
    pos = 8 * np.arange(offset, offset + values.size, dtype=np.int64)
    words = _LOW.take(values)
    words ^= _ODD_MASK.take(values) & pos
    words ^= _BIT7_MASK.take(values) & (pos + 8)
    folded = int(np.bitwise_xor.reduce(words))
    return folded & ((1 << _PARITY_SHIFT) - 1), folded >> _PARITY_SHIFT


def compute_ecc(data: bytes) -> PageECC:
    """Encode one page's spare-area ECC words."""
    syndrome, parity = _syndrome_parity(data)
    return PageECC(syndrome, parity, zlib.crc32(data))


def update_ecc(
    ecc: PageECC, offset: int, old_chunk: bytes, new_chunk: bytes,
    page: bytes,
) -> PageECC:
    """Re-encode a page whose bytes at ``offset`` went from old to new.

    ``ecc`` must be the words of the page *before* the rewrite (verified
    clean or corrected), and ``page`` the page after it; the result
    equals ``compute_ecc(page)`` at the cost of the chunk, plus one CRC.
    """
    # linear over GF(2): the flipped bits alone carry the whole change
    flipped = np.bitwise_xor(
        np.frombuffer(old_chunk, dtype=np.uint8),
        np.frombuffer(new_chunk, dtype=np.uint8),
    )
    syndrome, parity = _syndrome_parity(flipped, offset)
    return PageECC(
        ecc.syndrome ^ syndrome, ecc.parity ^ parity, zlib.crc32(page)
    )


def decode_page(data: bytes, ecc: PageECC) -> DecodeResult:
    """Verify one page against its spare area; correct a single flip."""
    syndrome, parity = _syndrome_parity(data)
    ds = ecc.syndrome ^ syndrome
    dp = ecc.parity ^ parity
    if ds == 0 and dp == 0:
        if zlib.crc32(data) != ecc.crc:
            # an even-weight flip pattern whose indices XOR to zero —
            # invisible to the Hamming code, caught end-to-end
            return DecodeResult(data, 0, False, "crc mismatch, syndrome clean")
        return DecodeResult(data, 0, True)
    if dp == 1:
        index = ds - 1
        if 0 <= index < 8 * len(data):
            fixed = bytearray(data)
            fixed[index // 8] ^= 0x80 >> (index % 8)
            fixed = bytes(fixed)
            if zlib.crc32(fixed) == ecc.crc:
                return DecodeResult(fixed, 1, True)
            return DecodeResult(data, 0, False, "miscorrection (>=3 flips)")
        return DecodeResult(data, 0, False, "syndrome out of range")
    return DecodeResult(data, 0, False, "double-bit error")
