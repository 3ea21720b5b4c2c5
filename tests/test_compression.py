"""Tests for the compression substrate (bitstream, codecs, LZ)."""

import numpy as np
import pytest

from repro.compression.bitstream import BitReader, BitWriter
from repro.compression.dictionary import (
    dictionary_decode,
    dictionary_encode,
    frequency_dictionary,
)
from repro.compression.elias import (
    decode_gamma,
    encode_gamma,
)
from repro.compression.hash_codec import (
    dcomp_decompress,
    hcomp_compress,
)
from repro.compression.lz import lz_compress, lz_decompress
from repro.compression.rle import rle_decode, rle_encode
from repro.errors import ConfigurationError


class TestBitstream:
    def test_roundtrip_bits(self):
        writer = BitWriter()
        writer.write_bits(0b1011, 4)
        writer.write_bits(0b1, 1)
        reader = BitReader(writer.to_bytes(), writer.bit_length)
        assert reader.read_bits(4) == 0b1011
        assert reader.read_bit() == 1

    def test_unary(self):
        writer = BitWriter()
        writer.write_unary(3)
        reader = BitReader(writer.to_bytes(), writer.bit_length)
        assert reader.read_unary() == 3

    def test_overflow_value_rejected(self):
        writer = BitWriter()
        with pytest.raises(ConfigurationError):
            writer.write_bits(4, 2)

    def test_exhausted_stream_rejected(self):
        reader = BitReader(b"", 0)
        with pytest.raises(ConfigurationError):
            reader.read_bit()

    def test_bit_length_cap(self):
        with pytest.raises(ConfigurationError):
            BitReader(b"\x00", 9)


class TestElias:
    @pytest.mark.parametrize("value", [1, 2, 3, 7, 8, 100, 65535])
    def test_roundtrip(self, value):
        writer = BitWriter()
        encode_gamma(writer, value)
        reader = BitReader(writer.to_bytes(), writer.bit_length)
        assert decode_gamma(reader) == value

    def test_sequence_roundtrip(self):
        values = [1, 5, 2, 100, 3, 1, 1]
        writer = BitWriter()
        for value in values:
            encode_gamma(writer, value)
        reader = BitReader(writer.to_bytes(), writer.bit_length)
        assert [decode_gamma(reader) for _ in values] == values

    def test_small_values_are_short(self):
        writer = BitWriter()
        encode_gamma(writer, 1)
        assert writer.bit_length == 1

    def test_zero_rejected(self):
        with pytest.raises(ConfigurationError):
            encode_gamma(BitWriter(), 0)


class TestRLE:
    def test_roundtrip(self):
        symbols = [1, 1, 1, 2, 2, 3, 1]
        assert rle_decode(rle_encode(symbols)) == symbols

    def test_runs(self):
        assert rle_encode([5, 5, 5]) == [(5, 3)]

    def test_empty(self):
        assert rle_encode([]) == []
        assert rle_decode([]) == []

    def test_bad_run_rejected(self):
        with pytest.raises(ConfigurationError):
            rle_decode([(1, 0)])


class TestDictionary:
    def test_frequency_order(self):
        dictionary = frequency_dictionary([3, 3, 3, 1, 1, 7])
        assert dictionary == [3, 1, 7]

    def test_tie_break_by_value(self):
        assert frequency_dictionary([5, 2]) == [2, 5]

    def test_roundtrip(self):
        symbols = [4, 4, 2, 9, 4]
        indexes, dictionary = dictionary_encode(symbols)
        assert dictionary_decode(indexes, dictionary) == symbols

    def test_missing_symbol_rejected(self):
        with pytest.raises(ConfigurationError):
            dictionary_encode([1, 2], dictionary=[1])

    def test_bad_index_rejected(self):
        with pytest.raises(ConfigurationError):
            dictionary_decode([5], [1, 2])


class TestHashCodec:
    def test_roundtrip_skewed_stream(self, rng):
        hashes = [int(x) for x in rng.choice([3, 3, 3, 3, 7, 9], size=400)]
        assert dcomp_decompress(hcomp_compress(hashes)) == hashes

    def test_roundtrip_uniform_stream(self, rng):
        hashes = [int(x) for x in rng.integers(0, 256, 300)]
        assert dcomp_decompress(hcomp_compress(hashes)) == hashes

    def test_compresses_correlated_hashes(self, rng):
        # temporally-correlated brain signals produce runs of equal hashes
        hashes = []
        value = 5
        for _ in range(500):
            if rng.random() < 0.1:
                value = int(rng.integers(0, 8))
            hashes.append(value)
        assert len(hashes) / len(hcomp_compress(hashes)) > 2.0

    def test_single_value(self):
        assert dcomp_decompress(hcomp_compress([42])) == [42]

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            hcomp_compress([])

    def test_wide_values_rejected(self):
        with pytest.raises(ConfigurationError):
            hcomp_compress([256])

    def test_truncated_blob_rejected(self):
        blob = hcomp_compress([1, 2, 3])
        with pytest.raises(ConfigurationError):
            dcomp_decompress(blob[:3])


class TestLZ:
    def test_roundtrip_repetitive(self):
        data = b"abcabcabcabc" * 20
        assert lz_decompress(lz_compress(data)) == data
        assert len(lz_compress(data)) < len(data)

    def test_roundtrip_random(self, rng):
        data = bytes(rng.integers(0, 256, 500, dtype=np.uint8))
        assert lz_decompress(lz_compress(data)) == data

    def test_empty(self):
        assert lz_decompress(lz_compress(b"")) == b""

    def test_truncated_rejected(self):
        blob = lz_compress(b"hello world hello world")
        with pytest.raises(ConfigurationError):
            lz_decompress(blob[: len(blob) // 2])

    def test_hcomp_close_to_lz_on_hash_streams(self, rng):
        """The paper: HCOMP's ratio is within ~10 % of LZ on hash data."""
        hashes = []
        value = 3
        for _ in range(2000):
            if rng.random() < 0.15:
                value = int(rng.integers(0, 16))
            hashes.append(value)
        hcomp_size = len(hcomp_compress(hashes))
        lz_size = len(lz_compress(bytes(hashes)))
        assert hcomp_size < 1.5 * lz_size
