"""Tests for the exact similarity measures (DTW, XCOR, EMD, Euclidean)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.similarity.dtw import dtw_cell_count, dtw_distance, dtw_distance_matrix
from repro.similarity.emd import emd_1d, emd_signal, signal_to_histogram
from repro.similarity.measures import euclidean_distance, get_measure
from repro.similarity.xcor import (
    cross_correlation_lags,
    max_cross_correlation,
    pearson_correlation,
)


class TestDTW:
    def test_identity_is_zero(self, rng):
        x = rng.normal(size=50)
        assert dtw_distance(x, x) == pytest.approx(0.0)

    def test_symmetric(self, rng):
        a, b = rng.normal(size=40), rng.normal(size=40)
        assert dtw_distance(a, b, band=8) == pytest.approx(
            dtw_distance(b, a, band=8)
        )

    def test_tolerates_time_warp(self):
        t = np.linspace(0, 4 * np.pi, 80)
        a = np.sin(t)
        b = np.sin(t + 0.3)  # phase-shifted
        warped = dtw_distance(a, b, band=10)
        lockstep = dtw_distance(a, b, band=1)
        assert warped < lockstep

    def test_band_one_is_l1_lockstep(self):
        a = np.array([1.0, 2.0, 3.0])
        b = np.array([2.0, 2.0, 5.0])
        assert dtw_distance(a, b, band=1) == pytest.approx(3.0)

    def test_band_one_needs_equal_lengths(self):
        with pytest.raises(ConfigurationError):
            dtw_distance(np.zeros(3), np.zeros(4), band=1)

    def test_unequal_lengths_allowed_unbanded(self):
        a = np.array([0.0, 1.0, 0.0])
        b = np.array([0.0, 1.0, 1.0, 0.0])
        assert dtw_distance(a, b) == pytest.approx(0.0)

    def test_matrix_shape(self, rng):
        q = rng.normal(size=(3, 20))
        r = rng.normal(size=(4, 20))
        out = dtw_distance_matrix(q, r, band=5)
        assert out.shape == (3, 4)

    def test_cell_count_banded_less_than_full(self):
        assert dtw_cell_count(120, 120, band=10) < dtw_cell_count(120, 120)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            dtw_distance(np.array([]), np.array([1.0]))


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
        assert get_measure("xcor").is_similar(a, near, threshold=0.8)
        assert get_measure("euclidean").is_similar(a, near, threshold=1.0)
        assert not get_measure("euclidean").is_similar(
            a, 10 + a * 5, threshold=1.0
        )
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
