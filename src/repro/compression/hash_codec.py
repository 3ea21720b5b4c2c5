"""The HCOMP/DCOMP hash codec: dictionary + run-length + Elias-gamma.

HCOMP "first encodes the hashes with dictionary coding, then uses
run-length encoding of the dictionary indexes, and finally uses Elias-g
coding on the run-length counts" (paper §3.2).  DCOMP reverses the three
steps on the receiving side.

Wire format (byte-aligned header, then a tight bit stream)::

    u16  number of source symbols
    u8   dictionary size D (0 means 256)
    D*u8 dictionary entries (hash values, one byte each)
    u16  number of runs R
    u16  bit length of the payload
    ...  R x [ index: ceil(log2 D) bits | count: Elias-gamma ]
"""

from __future__ import annotations

import math
import struct

from repro.compression.bitstream import BitReader, BitWriter
from repro.compression.dictionary import (
    dictionary_decode,
    dictionary_encode,
    frequency_dictionary,
)
from repro.compression.elias import decode_gamma, encode_gamma
from repro.compression.rle import rle_decode, rle_encode
from repro.errors import ConfigurationError


def _index_width(dictionary_size: int) -> int:
    if dictionary_size <= 1:
        return 1
    return math.ceil(math.log2(dictionary_size))


def hcomp_compress(hashes: list[int]) -> bytes:
    """Compress a stream of 8-bit hash values.

    Raises:
        ConfigurationError: if any value does not fit one byte, or the
            stream is empty (nothing to send).
    """
    if not hashes:
        raise ConfigurationError("nothing to compress")
    if any(not 0 <= h <= 0xFF for h in hashes):
        raise ConfigurationError("hash values must fit in one byte")

    dictionary = frequency_dictionary(hashes)
    indexes, _ = dictionary_encode(hashes, dictionary)
    runs = rle_encode(indexes)

    writer = BitWriter()
    width = _index_width(len(dictionary))
    for index, count in runs:
        writer.write_bits(index, width)
        encode_gamma(writer, count)
    payload = writer.to_bytes()

    header = struct.pack(
        "<HBxHH",
        len(hashes),
        len(dictionary) & 0xFF,  # 256 wraps to 0
        len(runs),
        writer.bit_length,
    )
    return header + bytes(dictionary) + payload


def dcomp_decompress(blob: bytes) -> list[int]:
    """Inverse of :func:`hcomp_compress`."""
    header_size = struct.calcsize("<HBxHH")
    if len(blob) < header_size:
        raise ConfigurationError("truncated HCOMP blob")
    n_symbols, dict_size_raw, n_runs, bit_length = struct.unpack(
        "<HBxHH", blob[:header_size]
    )
    dict_size = dict_size_raw or 256
    dict_end = header_size + dict_size
    if len(blob) < dict_end:
        raise ConfigurationError("truncated HCOMP dictionary")
    dictionary = list(blob[header_size:dict_end])
    payload = blob[dict_end:]

    reader = BitReader(payload, bit_length)
    width = _index_width(dict_size)
    runs = []
    for _ in range(n_runs):
        index = reader.read_bits(width)
        count = decode_gamma(reader)
        runs.append((index, count))
    indexes = rle_decode(runs)
    if len(indexes) != n_symbols:
        raise ConfigurationError(
            f"decoded {len(indexes)} symbols, header said {n_symbols}"
        )
    return dictionary_decode(indexes, dictionary)
