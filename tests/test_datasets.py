"""Tests for the synthetic iEEG and spike dataset generators."""

import numpy as np
import pytest

from repro.datasets.spikes import (
    PROFILES,
    SPIKE_SAMPLES,
    SpikeDatasetProfile,
    generate_spikes,
)
from repro.datasets import synthetic_ieeg
from repro.datasets.synthetic_ieeg import generate_ieeg, pink_noise
from repro.errors import ConfigurationError


class TestPinkNoise:
    def test_unit_variance(self, rng):
        noise = pink_noise(4096, rng)
        assert noise.std() == pytest.approx(1.0, rel=1e-6)

    def test_spectrum_is_low_frequency_heavy(self, rng):
        noise = pink_noise(8192, rng)
        spectrum = np.abs(np.fft.rfft(noise)) ** 2
        low = spectrum[1:100].mean()
        high = spectrum[-100:].mean()
        assert low > 10 * high

    def test_too_short_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            pink_noise(1, rng)


class TestSyntheticIEEG:
    def test_shapes_and_annotations(self, small_recording):
        rec = small_recording
        assert rec.data.shape == (3, 4, rec.n_samples)
        assert len(rec.seizures) == 1
        seizure = rec.seizures[0]
        assert seizure.onset_node in seizure.arrivals
        assert seizure.arrivals[seizure.onset_node] == seizure.onset_sample

    def test_propagation_delays_positive(self, small_recording):
        seizure = small_recording.seizures[0]
        for node, arrival in seizure.arrivals.items():
            if node != seizure.onset_node:
                assert arrival > seizure.onset_sample

    def test_seizure_raises_amplitude(self, small_recording):
        rec = small_recording
        seizure = rec.seizures[0]
        node = seizure.onset_node
        start = seizure.onset_sample
        stop = start + seizure.duration_samples
        ictal = rec.data[node, :, start:stop].std()
        baseline = rec.data[node, :, : start // 2].std()
        assert ictal > 2 * baseline

    def test_window_labels_cover_seizure(self, small_recording):
        rec = small_recording
        labels = rec.window_labels(120, rec.seizures[0].onset_node)
        assert labels.sum() > 0
        onset_window = rec.seizures[0].onset_sample // 120
        assert labels[onset_window : onset_window + 3].any()

    def test_partial_propagation(self, monkeypatch):
        monkeypatch.setattr(synthetic_ieeg, "PROPAGATION_FRACTION", 0.5)
        rec = generate_ieeg(
            n_nodes=5, n_electrodes=2, duration_s=1.0, fs_hz=4000,
            n_seizures=1, seizure_duration_s=0.2, seed=3,
        )
        arrivals = rec.seizures[0].arrivals
        assert len(arrivals) == 1 + 2  # onset + half of the other 4

    def test_deterministic_for_seed(self):
        a = generate_ieeg(n_nodes=2, n_electrodes=2, duration_s=0.5,
                          fs_hz=2000, seizure_duration_s=0.1, seed=5)
        b = generate_ieeg(n_nodes=2, n_electrodes=2, duration_s=0.5,
                          fs_hz=2000, seizure_duration_s=0.1, seed=5)
        assert np.array_equal(a.data, b.data)

    def test_too_many_seizures_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_ieeg(duration_s=0.5, fs_hz=4000, n_seizures=10)


class TestSpikeDatasets:
    def test_profiles_exist(self):
        assert set(PROFILES) == {"spikeforest", "kilosort", "mearec"}

    def test_ground_truth_consistency(self, spike_dataset):
        ds = spike_dataset
        assert ds.spike_times.shape == ds.spike_labels.shape
        assert (np.diff(ds.spike_times) > 0).all()
        assert ds.spike_labels.max() < ds.profile.n_neurons
        assert ds.templates.shape == (
            ds.profile.n_neurons, ds.profile.n_channels, SPIKE_SAMPLES
        )

    def test_snippet_contains_spike_energy(self, spike_dataset):
        ds = spike_dataset
        t = int(ds.spike_times[0])
        snippet = ds.data[:, t : t + SPIKE_SAMPLES]
        noise = ds.data[:, : t - SPIKE_SAMPLES]
        assert np.abs(snippet).max() > 4 * noise.std()

    def test_deterministic_for_seed(self):
        a = generate_spikes("mearec", duration_s=1.0, seed=9)
        b = generate_spikes("mearec", duration_s=1.0, seed=9)
        assert np.array_equal(a.data, b.data)
        assert np.array_equal(a.spike_times, b.spike_times)

    def test_custom_profile(self):
        profile = SpikeDatasetProfile("tiny", 2, 3, 5.0, 0.2, 0.1, 0.0)
        ds = generate_spikes(profile, duration_s=1.0, seed=0)
        assert ds.data.shape[0] == 2

    def test_unknown_profile_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_spikes("unknown")

    def test_too_short_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_spikes("mearec", duration_s=0.001)
