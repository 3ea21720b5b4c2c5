"""Tests for the RC/MA range coder and the LIC integer coder."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.lic import (
    lic_compress,
    lic_decompress,
    unzigzag,
    zigzag,
)
from repro.compression.range_coder import rc_compress, rc_decompress
from repro.errors import ConfigurationError


class TestRangeCoder:
    def test_roundtrip_text(self):
        data = b"the quick brown implant hashes the quick brown signal" * 5
        for order in (0, 1):
            assert rc_decompress(rc_compress(data, order)) == data

    def test_roundtrip_random(self, rng):
        data = bytes(rng.integers(0, 256, 700, dtype=np.uint8))
        assert rc_decompress(rc_compress(data)) == data

    def test_empty(self):
        assert rc_decompress(rc_compress(b"")) == b""

    def test_markov_beats_order0_on_correlated_data(self, rng):
        walk = np.clip(np.cumsum(rng.normal(0, 2, 4000)), -120, 120)
        data = bytes((walk + 128).astype(np.uint8))
        assert len(rc_compress(data, order=1)) < len(rc_compress(data, order=0))

    def test_compresses_skewed_data(self, rng):
        data = bytes(rng.choice([7, 7, 7, 7, 9], size=2000).astype(np.uint8))
        assert len(rc_compress(data, order=0)) < len(data) / 2

    def test_bad_order_rejected(self):
        with pytest.raises(ConfigurationError):
            rc_compress(b"x", order=2)

    def test_truncated_rejected(self):
        with pytest.raises(ConfigurationError):
            rc_decompress(b"ab")

    @settings(max_examples=30, deadline=None)
    @given(st.binary(max_size=300), st.integers(0, 1))
    def test_roundtrip_property(self, data, order):
        assert rc_decompress(rc_compress(data, order)) == data


class TestLIC:
    def test_zigzag_roundtrip(self):
        values = np.array([-5, -1, 0, 1, 7, -32768, 32767])
        assert (unzigzag(zigzag(values)) == values).all()

    def test_zigzag_ordering(self):
        # small magnitudes map to small codes
        assert zigzag(np.array([0]))[0] == 0
        assert zigzag(np.array([-1]))[0] == 1
        assert zigzag(np.array([1]))[0] == 2

    @pytest.mark.parametrize("order", [1, 2])
    def test_roundtrip_smooth(self, order, rng):
        samples = (1000 * np.sin(np.linspace(0, 40, 3000))
                   + 20 * rng.standard_normal(3000)).astype(np.int64)
        out = lic_decompress(lic_compress(samples, order))
        assert (out == samples).all()

    def test_roundtrip_adversarial_jumps(self, rng):
        samples = rng.integers(-30000, 30000, 600)
        assert (lic_decompress(lic_compress(samples)) == samples).all()

    def test_compresses_neural_like_data(self, rng):
        samples = (500 * np.sin(np.linspace(0, 40, 4000))
                   + 10 * rng.standard_normal(4000)).astype(np.int64)
        # raw 16-bit size over compressed size
        assert 2 * len(samples) / len(lic_compress(samples)) > 1.5

    def test_second_order_wins_on_smooth_ramps(self):
        ramp = np.arange(0, 30000, 7, dtype=np.int64)
        assert len(lic_compress(ramp, order=2)) < len(lic_compress(ramp, order=1))

    def test_single_sample(self):
        samples = np.array([12345])
        assert (lic_decompress(lic_compress(samples)) == samples).all()

    def test_2d_rejected(self):
        with pytest.raises(ConfigurationError):
            lic_compress(np.zeros((2, 3)))

    def test_bad_order_rejected(self):
        with pytest.raises(ConfigurationError):
            lic_compress(np.arange(10), order=3)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(-32768, 32767), min_size=1, max_size=400),
           st.integers(1, 2))
    def test_roundtrip_property(self, values, order):
        samples = np.asarray(values, dtype=np.int64)
        assert (lic_decompress(lic_compress(samples, order)) == samples).all()
