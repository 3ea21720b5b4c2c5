"""Tests for sign sketches, n-gram profiles, and weighted min-hash."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.hashing.minhash import finalize_hash
from repro.hashing.sketch import (
    random_projection_vector,
    sign_sketch,
    sketch_length,
)
from tests.minhash_oracle import (
    minhash_signature,
    ngram_counts,
    profile_similarity,
    weighted_minhash_sample,
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


class TestSignSketch:
    def test_output_is_bits(self, rng):
        proj = random_projection_vector(8, 7)
        bits = sign_sketch(rng.normal(size=64), proj)
        assert set(np.unique(bits)) <= {0, 1}

    def test_length_matches_helper(self, rng):
        proj = random_projection_vector(8, 7)
        for stride in (1, 2, 4):
            for diff in (True, False):
                bits = sign_sketch(rng.normal(size=64), proj, stride,
                                   difference=diff)
                assert bits.shape[0] == sketch_length(64, 8, stride, diff)

    def test_gain_invariant(self, rng):
        proj = random_projection_vector(8, 7)
        x = rng.normal(size=64)
        assert (sign_sketch(x, proj) == sign_sketch(3.5 * x, proj)).all()

    def test_normalise_makes_offset_invariant(self, rng):
        proj = random_projection_vector(8, 7)
        x = rng.normal(size=64)
        a = sign_sketch(x, proj, normalise=True)
        b = sign_sketch(x + 100.0, proj, normalise=True)
        assert (a == b).all()

    def test_projection_longer_than_window_rejected(self):
        proj = random_projection_vector(32, 7)
        with pytest.raises(ConfigurationError):
            sign_sketch(np.zeros(16), proj)

    def test_bad_stride_rejected(self, rng):
        proj = random_projection_vector(8, 7)
        with pytest.raises(ConfigurationError):
            sign_sketch(rng.normal(size=64), proj, stride=0)


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
