"""Tests for the feature kernels (SBP, NEO, THR)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.signal import features
from repro.signal.features import (
    adaptive_threshold,
    nonlinear_energy,
    spike_band_power_multichannel,
    threshold_crossings,
)


class TestSpikeBandPower:
    def test_multichannel(self):
        data = np.array([[1.0, -1.0], [2.0, -2.0]])
        assert (spike_band_power_multichannel(data) == [1.0, 2.0]).all()

    def test_multichannel_needs_2d(self):
        with pytest.raises(ConfigurationError):
            spike_band_power_multichannel(np.ones(5))


class TestNEO:
    def test_definition(self):
        x = np.array([0.0, 1.0, 2.0, 1.0, 0.0])
        energy = nonlinear_energy(x)
        assert energy[2] == pytest.approx(2.0**2 - 1.0 * 1.0)
        assert energy[0] == 0.0 and energy[-1] == 0.0

    def test_emphasises_transients(self):
        rng = np.random.default_rng(0)
        x = 0.1 * rng.standard_normal(200)
        x[100] = 5.0
        energy = nonlinear_energy(x)
        assert np.argmax(energy) in (99, 100, 101)

    def test_needs_1d(self):
        with pytest.raises(ConfigurationError):
            nonlinear_energy(np.zeros((2, 5)))


class TestThreshold:
    def test_simple_crossing(self, monkeypatch):
        monkeypatch.setattr(features, "REFRACTORY_SAMPLES", 0)
        x = np.array([0.0, 0.0, 5.0, 5.0, 0.0, 5.0])
        crossings = threshold_crossings(x, 1.0)
        assert list(crossings) == [2, 5]

    def test_refractory_suppresses(self, monkeypatch):
        monkeypatch.setattr(features, "REFRACTORY_SAMPLES", 2)
        x = np.array([0.0, 5.0, 0.0, 5.0, 0.0, 5.0])
        crossings = threshold_crossings(x, 1.0)
        assert list(crossings) == [1, 5]

    def test_initially_above(self, monkeypatch):
        monkeypatch.setattr(features, "REFRACTORY_SAMPLES", 0)
        x = np.array([5.0, 0.0, 5.0])
        crossings = threshold_crossings(x, 1.0)
        assert list(crossings) == [0, 2]

    def test_adaptive_threshold_scales_with_noise(self):
        rng = np.random.default_rng(0)
        low = adaptive_threshold(rng.normal(scale=0.1, size=5000))
        high = adaptive_threshold(rng.normal(scale=1.0, size=5000))
        assert high > 5 * low
