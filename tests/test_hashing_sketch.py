"""Tests for sign sketches, n-gram profiles, and weighted min-hash."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import ConfigurationError
from repro.hashing.minhash import (
    _power,
    finalize_hash,
    minhash_signature_batch,
)
from repro.hashing.ngram import MAX_SHINGLE_BITS, ngram_value_matrix
from repro.hashing.sketch import random_projection_vector, sign_sketch_batch
from tests.minhash_oracle import (
    minhash_signature,
    ngram_counts,
    profile_similarity,
    shingle_values,
    sign_sketch,
    sketch_length,
    weighted_minhash_sample,
    weighted_score,
)


class TestProjection:
    def test_deterministic_for_seed(self):
        a = random_projection_vector(16, seed=7)
        b = random_projection_vector(16, seed=7)
        assert (a == b).all()

    def test_different_salts_differ(self):
        a = random_projection_vector(16, 7, rng_salt=0)
        b = random_projection_vector(16, 7, rng_salt=1)
        assert not (a == b).all()

    def test_bad_length_rejected(self):
        with pytest.raises(ConfigurationError):
            random_projection_vector(0, 7)


def _one_row(x):
    return np.asarray(x, dtype=float)[None, :]


class TestSignSketch:
    def test_output_is_bits(self, rng):
        proj = random_projection_vector(8, 7)
        bits = sign_sketch_batch(_one_row(rng.normal(size=64)), proj)
        assert set(np.unique(bits)) <= {0, 1}

    def test_length_matches_helper(self, rng):
        proj = random_projection_vector(8, 7)
        for stride in (1, 2, 4):
            bits = sign_sketch_batch(_one_row(rng.normal(size=64)), proj, stride)
            assert bits.shape == (1, sketch_length(64, 8, stride))

    def test_gain_invariant(self, rng):
        proj = random_projection_vector(8, 7)
        x = rng.normal(size=64)
        assert (
            sign_sketch_batch(_one_row(x), proj)
            == sign_sketch_batch(_one_row(3.5 * x), proj)
        ).all()

    def test_normalise_makes_offset_invariant(self, rng):
        proj = random_projection_vector(8, 7)
        x = rng.normal(size=64)
        a = sign_sketch_batch(_one_row(x), proj, normalise=True)
        b = sign_sketch_batch(_one_row(x + 100.0), proj, normalise=True)
        assert (a == b).all()

    def test_projection_longer_than_window_rejected(self):
        proj = random_projection_vector(32, 7)
        with pytest.raises(ConfigurationError):
            sign_sketch_batch(np.zeros((1, 16)), proj)

    def test_bad_stride_rejected(self, rng):
        proj = random_projection_vector(8, 7)
        with pytest.raises(ConfigurationError):
            sign_sketch_batch(_one_row(rng.normal(size=64)), proj, stride=0)

    def test_one_d_input_rejected(self, rng):
        proj = random_projection_vector(8, 7)
        with pytest.raises(ConfigurationError):
            sign_sketch_batch(rng.normal(size=64), proj)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 5),
        w=st.integers(1, 40),
        extra=st.integers(0, 90),
        stride=st.integers(1, 5),
        normalise=st.booleans(),
    )
    def test_rows_match_scalar_oracle(self, seed, n, w, extra, stride,
                                      normalise):
        rng = np.random.default_rng(seed)
        batch = rng.standard_normal((n, w + extra)) * 200
        batch[0] = batch[0, 0]  # constant row: zero variance
        proj = random_projection_vector(w, seed)
        bits = sign_sketch_batch(batch, proj, stride, normalise)
        assert bits.dtype == np.uint8
        assert bits.shape == (n, sketch_length(w + extra, w, stride))
        for row, expected in zip(bits, batch):
            assert np.array_equal(
                row, sign_sketch(expected, proj, stride, normalise)
            )


class TestNgrams:
    def test_counts(self):
        counts = ngram_counts(np.array([1, 0, 1, 0, 1]), 2)
        # shingles: 10, 01, 10, 01 -> {0b10: 2, 0b01: 2}
        assert counts == {2: 2, 1: 2}

    def test_short_input_empty(self):
        assert ngram_counts(np.array([1]), 3) == {}

    def test_non_binary_rejected(self):
        with pytest.raises(ConfigurationError):
            ngram_counts(np.array([0, 2, 1]), 2)

    def test_profile_similarity_bounds(self, rng):
        a = ngram_counts(rng.integers(0, 2, 64), 4)
        b = ngram_counts(rng.integers(0, 2, 64), 4)
        similarity = profile_similarity(a, b)
        assert 0.0 <= similarity <= 1.0
        assert profile_similarity(a, a) == 1.0

    def test_disjoint_profiles_zero(self):
        assert profile_similarity({1: 3}, {2: 5}) == 0.0


class TestShingleCodes:
    """NGRAM shingle codes are uint16 and equal the oracle's int64 ones."""

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, MAX_SHINGLE_BITS),
        fill=st.sampled_from(("random", "ones")),
        data=st.data(),
    )
    def test_codes_match_oracle_shingles(self, n, fill, data):
        n_rows = data.draw(st.integers(0, 4))
        length = data.draw(st.integers(0, 48))
        if fill == "ones":
            bits = np.ones((n_rows, length), dtype=np.uint8)
        else:
            bits = data.draw(arrays(np.uint8, (n_rows, length),
                                    elements=st.integers(0, 1)))
        values = ngram_value_matrix(bits, n)
        assert values.dtype == np.uint16
        assert values.shape == (n_rows, max(length - n + 1, 0))
        for row, row_bits in zip(values, bits):
            assert row.tolist() == shingle_values(row_bits, n).tolist()

    def test_all_ones_at_sixteen_bits_is_the_top_code(self):
        bits = np.ones((2, 20), dtype=np.uint8)
        values = ngram_value_matrix(bits, 16)
        assert values.tolist() == [[65_535] * 5] * 2
        seeds = [11, 12, 13]
        assert minhash_signature_batch(values, seeds, 4).tolist() == [
            list(minhash_signature({65_535: 5}, seeds, 4))
        ] * 2

    def test_wider_than_sixteen_bits_rejected(self):
        with pytest.raises(ConfigurationError, match="between 1 and 16"):
            ngram_value_matrix(np.ones((1, 40), dtype=np.uint8), 17)

    @pytest.mark.parametrize("bad", [-1, -(1 << 40), 1 << 16, (1 << 16) + 7])
    def test_min_hash_rejects_int64_codes_outside_sixteen_bits(self, bad):
        values = np.array([[0, 5, 65_535, bad]], dtype=np.int64)
        with pytest.raises(ConfigurationError, match="16-bit codes"):
            minhash_signature_batch(values, [1, 2], 4)

    def test_min_hash_of_int64_codes_equals_uint16(self, rng):
        values = rng.integers(0, 1 << 16, (6, 30))
        values[0] = 65_535
        seeds = [3, 4, 5]
        assert np.array_equal(
            minhash_signature_batch(values, seeds, 8),
            minhash_signature_batch(values.astype(np.uint16), seeds, 8),
        )


class TestMinhash:
    def test_deterministic(self):
        counts = {1: 3, 2: 1, 5: 7}
        assert weighted_minhash_sample(counts, 42) == weighted_minhash_sample(
            counts, 42
        )

    def test_collision_probability_tracks_jaccard(self, rng):
        """The min-hash collision rate estimates weighted Jaccard."""
        a = {i: int(w) for i, w in enumerate(rng.integers(1, 10, 20))}
        b = dict(a)
        # perturb a few weights
        for key in list(b)[:5]:
            b[key] = max(1, b[key] + 3)
        true_j = profile_similarity(a, b)
        n_seeds = 400
        hits = sum(
            weighted_minhash_sample(a, s) == weighted_minhash_sample(b, s)
            for s in range(n_seeds)
        )
        assert hits / n_seeds == pytest.approx(true_j, abs=0.1)

    def test_empty_profile_rejected(self):
        with pytest.raises(ConfigurationError):
            weighted_minhash_sample({}, 1)

    def test_zero_weights_rejected(self):
        with pytest.raises(ConfigurationError):
            weighted_minhash_sample({1: 0}, 1)

    def test_finalize_width(self):
        for bits in (1, 4, 8, 16):
            value = finalize_hash(12345, 7, bits)
            assert 0 <= value < (1 << bits)

    def test_finalize_bad_width_rejected(self):
        with pytest.raises(ConfigurationError):
            finalize_hash(1, 7, 0)

    def test_signature_length(self):
        sig = minhash_signature({1: 2, 3: 4}, seeds=[1, 2, 3], bits=8)
        assert len(sig) == 3

    def test_oracle_scores_match_kernel_power_bit_for_bit(self):
        """50 004 seeded ``(u, w)`` pairs, w in 2..50, laid out as the
        kernel scores them: one weight per row, one seed per column."""
        rng = np.random.default_rng(2024)
        n_rows, n_seeds = 4167, 12
        uniforms = rng.random((n_rows, n_seeds))
        weights = rng.integers(2, 51, n_rows)
        kernel = _power(uniforms, weights)
        oracle = np.array(
            [
                [weighted_score(u, w) for u in row]
                for row, w in zip(uniforms.tolist(), weights.tolist())
            ]
        )
        assert np.array_equal(kernel.view(np.uint64), oracle.view(np.uint64))
