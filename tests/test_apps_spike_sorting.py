"""Tests for hash-filtered online spike sorting."""

import numpy as np
import pytest

from repro.apps.spike_sorting import (
    _WAVE_BINS,
    _WAVE_RANGE,
    SpikeSorter,
    TemplateMatcher,
    detect_spikes,
    detection_recall,
    sorting_accuracy,
)
from repro.datasets.spikes import SPIKE_SAMPLES
from repro.errors import ConfigurationError
from repro.hashing import emd_hash
from repro.similarity.emd import signal_to_histogram
from tests import emd_oracle


def _snippet(dataset, spike_index: int) -> np.ndarray:
    """The multichannel waveform around one spike."""
    t = int(dataset.spike_times[spike_index])
    return dataset.data[:, t : t + SPIKE_SAMPLES]


class TestDetection:
    def test_recall_high_on_clean_data(self, spike_dataset):
        times = detect_spikes(spike_dataset.data)
        truth = spike_dataset.spike_times
        found = 0
        for t in truth:
            if np.min(np.abs(times - t)) <= 45:
                found += 1
        assert found / truth.shape[0] > 0.9

    def test_few_false_positives(self, spike_dataset):
        times = detect_spikes(spike_dataset.data)
        truth = spike_dataset.spike_times
        false = sum(1 for t in times if np.min(np.abs(truth - t)) > 45)
        assert false / times.shape[0] < 0.15

    def test_silence_yields_nothing_much(self, rng):
        data = 0.1 * rng.standard_normal((4, 30000))
        times = detect_spikes(data)
        assert times.shape[0] < 20

    def test_1d_rejected(self):
        with pytest.raises(ConfigurationError):
            detect_spikes(np.zeros(100))


class TestTemplateMatcher:
    def test_exact_classifies_clean_templates(self, spike_dataset):
        matcher = TemplateMatcher(spike_dataset.templates)
        correct = 0
        for neuron in range(matcher.n_neurons):
            snippet = spike_dataset.templates[neuron]
            correct += matcher.classify_exact(snippet) == neuron
        assert correct / matcher.n_neurons > 0.85

    def test_hashed_agrees_with_exact_mostly(self, spike_dataset):
        matcher = TemplateMatcher(spike_dataset.templates)
        agree = 0
        n = min(60, spike_dataset.n_spikes)
        for i in range(n):
            snippet = _snippet(spike_dataset, i)
            hashed, _ = matcher.classify_hashed(snippet)
            agree += hashed == matcher.classify_exact(snippet)
        assert agree / n > 0.8

    def test_costs_match_pairwise_oracle(self, spike_dataset):
        matcher = TemplateMatcher(spike_dataset.templates)
        for i in range(min(40, spike_dataset.n_spikes)):
            snippet = _snippet(spike_dataset, i)
            wave = matcher._snippet_wave(snippet)
            costs = [
                emd_oracle.emd_signal(wave, t, _WAVE_BINS, _WAVE_RANGE)
                for t in matcher._waves
            ]
            assert matcher.classify_exact(snippet) == int(np.argmin(costs))

    def test_histograms_each_waveform_once(self, spike_dataset, monkeypatch):
        binned = []

        def spy(window, *args):
            binned.append(np.shape(window))
            return signal_to_histogram(window, *args)

        # the hash and the exact EMD share one histogram per waveform
        monkeypatch.setattr(emd_hash, "signal_to_histogram", spy)
        matcher = TemplateMatcher(spike_dataset.templates)
        assert binned == [(matcher.n_neurons, SPIKE_SAMPLES)]
        snippet = _snippet(spike_dataset, 0)
        for classify in (matcher.classify_exact, matcher.classify_hashed):
            binned.clear()
            classify(snippet)
            assert binned == [(1, SPIKE_SAMPLES)]
        # a hash miss falls back to every template, still one histogram
        exact = matcher.classify_exact(snippet)
        matcher._signatures = np.full_like(matcher._signatures, -1)
        binned.clear()
        assert matcher.classify_hashed(snippet) == (exact, matcher.n_neurons)
        assert binned == [(1, SPIKE_SAMPLES)]

    def test_bad_template_shape_rejected(self):
        with pytest.raises(ConfigurationError):
            TemplateMatcher(np.zeros((3, 60)))

    def test_snippet_shape_rejected(self, spike_dataset):
        matcher = TemplateMatcher(spike_dataset.templates)
        with pytest.raises(ConfigurationError):
            matcher.classify_exact(np.zeros(60))


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def sorter(self, spike_dataset):
        return SpikeSorter.from_dataset(spike_dataset)

    @pytest.fixture(scope="class")
    def hash_result(self, sorter, spike_dataset):
        return sorter.sort(spike_dataset.data, "hash")

    @pytest.fixture(scope="class")
    def exact_result(self, sorter, spike_dataset):
        return sorter.sort(spike_dataset.data, "exact")

    def test_detection_recall(self, spike_dataset, hash_result):
        assert detection_recall(spike_dataset, hash_result) > 0.9

    def test_exact_accuracy_reasonable(self, spike_dataset, exact_result):
        assert sorting_accuracy(spike_dataset, exact_result) > 0.7

    def test_hash_within_5_points_of_exact(
        self, spike_dataset, hash_result, exact_result
    ):
        """The paper's §6.3 claim: hash sorting within 5 % of exact."""
        exact = sorting_accuracy(spike_dataset, exact_result)
        hashed = sorting_accuracy(spike_dataset, hash_result)
        assert hashed >= exact - 0.05

    def test_hash_saves_comparisons(self, hash_result, exact_result):
        assert hash_result.exact_comparisons <= exact_result.exact_comparisons

    def test_bad_method_rejected(self, sorter, spike_dataset):
        with pytest.raises(ConfigurationError):
            sorter.sort(spike_dataset.data, "magic")

    def test_dataset_difficulty_ordering(self):
        """Paper ordering: MEArec easiest, Kilosort hardest."""
        from repro.datasets.spikes import generate_spikes

        accuracies = {}
        for profile in ("mearec", "kilosort"):
            ds = generate_spikes(profile, duration_s=2.0, seed=1)
            sorter = SpikeSorter.from_dataset(ds)
            result = sorter.sort(ds.data, "exact")
            accuracies[profile] = sorting_accuracy(ds, result)
        assert accuracies["mearec"] > accuracies["kilosort"]
