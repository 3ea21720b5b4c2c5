"""Tests for the exact similarity measures (DTW, XCOR, EMD, Euclidean)."""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.similarity.dtw import dtw_rows
from repro.similarity.emd import emd_1d, emd_signal, signal_to_histogram
from repro.similarity.measures import euclidean_distance, get_measure
from repro.similarity.xcor import (
    cross_correlation_lags,
    max_cross_correlation,
    pearson_correlation,
)
from tests.dtw_oracle import dtw_distance


def _dtw(a, b, band=None):
    """The kernel on one pair: its one-row case."""
    return float(dtw_rows(np.asarray(a)[None], np.asarray(b)[None], band)[0])


class TestDTW:
    def test_identity_is_zero(self, rng):
        x = rng.normal(size=50)
        assert _dtw(x, x) == pytest.approx(0.0)

    def test_symmetric(self, rng):
        a, b = rng.normal(size=40), rng.normal(size=40)
        assert _dtw(a, b, band=8) == pytest.approx(_dtw(b, a, band=8))

    def test_tolerates_time_warp(self):
        t = np.linspace(0, 4 * np.pi, 80)
        a = np.sin(t)
        b = np.sin(t + 0.3)  # phase-shifted
        warped = _dtw(a, b, band=10)
        lockstep = _dtw(a, b, band=1)
        assert warped < lockstep

    def test_band_one_is_l1_lockstep(self):
        a = np.array([1.0, 2.0, 3.0])
        b = np.array([2.0, 2.0, 5.0])
        assert _dtw(a, b, band=1) == pytest.approx(3.0)

    def test_band_one_needs_equal_lengths(self):
        with pytest.raises(ConfigurationError):
            _dtw(np.zeros(3), np.zeros(4), band=1)

    def test_unequal_lengths_allowed_unbanded(self):
        a = np.array([0.0, 1.0, 0.0])
        b = np.array([0.0, 1.0, 1.0, 0.0])
        assert _dtw(a, b) == pytest.approx(0.0)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            _dtw(np.array([]), np.array([1.0]))


class TestDTWKernel:
    """:func:`dtw_rows` against the cell-by-cell oracle, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(1, 5),
        n=st.integers(1, 25),
        m=st.integers(1, 25),
        band=st.sampled_from([None, 1, 2, 3, 5, 100]),
        shared=st.booleans(),
        ties=st.booleans(),
    )
    @example(seed=0, k=3, n=120, m=120, band=10, shared=False, ties=False)
    @example(seed=1, k=2, n=4, m=20, band=2, shared=True, ties=True)
    def test_matches_oracle(self, seed, k, n, m, band, shared, ties):
        if band == 1:
            m = n  # lockstep needs equal lengths
        rng = np.random.default_rng(seed)
        windows = rng.standard_normal((k, n)) * 5
        templates = rng.standard_normal((k, m)) * 5
        if ties:  # whole-number samples make equal min operands common
            windows, templates = np.round(windows), np.round(templates)
        if shared:  # one 1-D template broadcast to every row
            templates = templates[0]
            want = [dtw_distance(row, templates, band) for row in windows]
        else:
            want = [
                dtw_distance(row, template, band)
                for row, template in zip(windows, templates)
            ]
        assert np.array_equal(dtw_rows(windows, templates, band), want)

    def test_zero_rows(self):
        for templates in (np.ones(7), np.ones((0, 7))):
            out = dtw_rows(np.empty((0, 5)), templates, 3)
            assert out.shape == (0,)

    @pytest.mark.parametrize(
        "a, b, band",
        [
            (np.array([]), np.ones(3), None),
            (np.ones(3), np.array([]), 2),
            (np.ones(3), np.ones(3), 0),
            (np.ones(3), np.ones(4), 1),
            # non-finite samples are refused before the DP, banded or
            # lockstep alike
            (np.array([1.0, np.inf, 2.0]), np.ones(5), 2),
            (np.ones(4), np.array([1.0, np.nan, 2.0]), None),
            (np.array([1.0, -np.inf, 2.0]), np.ones(3), 1),
        ],
    )
    def test_errors_match_oracle(self, a, b, band):
        with pytest.raises(ConfigurationError) as oracle_error:
            dtw_distance(a, b, band)
        with pytest.raises(
            ConfigurationError, match=re.escape(str(oracle_error.value))
        ):
            dtw_rows(a[None], b[None], band)

    @pytest.mark.parametrize(
        "windows, templates",
        [
            (np.zeros(3), np.ones(3)),
            (np.zeros((2, 3)), np.ones((3, 3))),
            (np.zeros((2, 3)), np.ones((2, 3, 1))),
        ],
    )
    def test_rejects_bad_shapes(self, windows, templates):
        with pytest.raises(ConfigurationError):
            dtw_distance(np.zeros((1, 3)), np.ones(3))
        with pytest.raises(ConfigurationError):
            dtw_rows(windows, templates)


class TestXCOR:
    def test_perfect_correlation(self):
        x = np.arange(10.0)
        assert pearson_correlation(x, 2 * x + 5) == pytest.approx(1.0)

    def test_anticorrelation(self):
        x = np.arange(10.0)
        assert pearson_correlation(x, -x) == pytest.approx(-1.0)

    def test_constant_input_returns_zero(self):
        assert pearson_correlation(np.ones(5), np.arange(5.0)) == 0.0

    def test_lags_detect_shift(self, rng):
        x = rng.normal(size=200)
        y = np.roll(x, 5)
        lags = cross_correlation_lags(x, y, max_lag=10)
        # roll(x, 5) delays x by 5, so lag +5 re-aligns them
        assert np.argmax(lags) == 10 + 5

    def test_max_over_lags_beats_lag_zero(self, rng):
        x = rng.normal(size=200)
        y = np.roll(x, 3)
        assert max_cross_correlation(x, y, max_lag=5) > pearson_correlation(x, y)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            pearson_correlation(np.zeros(4), np.zeros(5))


class TestEMD:
    def test_identical_histograms_zero(self):
        h = np.array([1.0, 2.0, 3.0])
        assert emd_1d(h, h) == 0.0

    def test_mass_shift_by_one_bin(self):
        a = np.array([1.0, 0.0, 0.0])
        b = np.array([0.0, 1.0, 0.0])
        assert emd_1d(a, b) == pytest.approx(1.0)

    def test_further_shift_costs_more(self):
        a = np.array([1.0, 0.0, 0.0, 0.0])
        near = np.array([0.0, 1.0, 0.0, 0.0])
        far = np.array([0.0, 0.0, 0.0, 1.0])
        assert emd_1d(a, far) > emd_1d(a, near)

    def test_normalisation_handles_unequal_mass(self):
        a = np.array([2.0, 0.0])
        b = np.array([0.0, 1.0])
        assert emd_1d(a, b) == pytest.approx(1.0)

    def test_unnormalised_unequal_mass_rejected(self):
        with pytest.raises(ConfigurationError):
            emd_1d(np.array([2.0, 0.0]), np.array([1.0, 0.0]), normalise=False)

    def test_negative_mass_rejected(self):
        with pytest.raises(ConfigurationError):
            emd_1d(np.array([-1.0, 1.0]), np.array([1.0, 0.0]))

    def test_signal_histogram_counts(self):
        hist = signal_to_histogram(np.array([0.1, 0.2, 0.9]), n_bins=2,
                                   value_range=(0.0, 1.0))
        assert hist.tolist() == [2.0, 1.0]

    def test_non_finite_range_rejected(self):
        window = np.array([0.1, np.nan, 0.9])
        with pytest.raises(ConfigurationError):
            signal_to_histogram(window)
        with pytest.raises(ConfigurationError):
            signal_to_histogram(window, value_range=(0.0, np.inf))
        # a fixed range drops what falls outside it, NaN included
        hist = signal_to_histogram(window, n_bins=2, value_range=(0.0, 1.0))
        assert hist.tolist() == [1.0, 1.0]

    def test_emd_signal_similarity_ordering(self, rng):
        a = rng.normal(size=120)
        near = a + 0.05 * rng.normal(size=120)
        far = rng.normal(size=120) * 3 + 2
        assert emd_signal(a, near) < emd_signal(a, far)


class TestMeasures:
    def test_registry_contains_four(self):
        for name in ("dtw", "euclidean", "xcor", "emd"):
            assert get_measure(name).name == name

    def test_unknown_measure_rejected(self):
        with pytest.raises(ConfigurationError):
            get_measure("cosine")

    def test_polarity(self, rng):
        a = rng.normal(size=120)
        near = a + 0.01 * rng.normal(size=120)
        xcor, euclidean = get_measure("xcor"), get_measure("euclidean")
        assert xcor.similar(xcor(a, near), 0.8)
        assert euclidean.similar(euclidean(a, near), 1.0)
        assert not euclidean.similar(euclidean(a, 10 + a * 5), 1.0)
        values = np.array([0.5, 1.0, 1.5])
        assert get_measure("xcor").similar(values, 1.0).tolist() == [
            False, True, True
        ]
        assert get_measure("euclidean").similar(values, 1.0).tolist() == [
            True, True, False
        ]

    def test_euclidean_shape_mismatch(self):
        with pytest.raises(ConfigurationError):
            euclidean_distance(np.zeros(3), np.zeros(4))
