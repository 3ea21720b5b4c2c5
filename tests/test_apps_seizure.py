"""Tests for seizure detection and the distributed propagation protocol."""

import numpy as np
import pytest

from repro.apps.seizure import (
    SeizurePropagationSimulator,
    train_detector_from_recording,
    window_features,
)
from repro.errors import ConfigurationError
from repro.hashing.lsh import LSHFamily


@pytest.fixture(scope="module")
def detector(small_recording):
    return train_detector_from_recording(
        small_recording, max_windows_per_node=150, seed=0
    )


class TestDetector:
    def test_features_shape(self, rng):
        assert window_features(rng.normal(size=120)).shape == (7,)

    def test_detector_separates_classes(self, small_recording, detector):
        rec = small_recording
        node = rec.seizures[0].onset_node
        labels = rec.window_labels(120, node)
        hits = 0
        total = 0
        for w in np.flatnonzero(labels)[:20]:
            window = rec.data[node].mean(axis=0)[w * 120:(w + 1) * 120]
            hits += detector.detect_window(window)
            total += 1
        assert hits / total > 0.6  # sensitive on true seizure windows
        false = 0
        for w in np.flatnonzero(labels == 0)[:30]:
            window = rec.data[node].mean(axis=0)[w * 120:(w + 1) * 120]
            false += detector.detect_window(window)
        assert false / 30 < 0.3


class TestPropagationSimulator:
    @pytest.fixture(scope="class")
    def result(self, small_recording, detector):
        simulator = SeizurePropagationSimulator(
            small_recording, detector, LSHFamily.for_measure("dtw"),
            dtw_threshold=250.0,
        )
        return simulator.run()

    def test_detections_cluster_during_seizure(self, small_recording, result):
        seizure = small_recording.seizures[0]
        node = seizure.onset_node
        onset_window = seizure.onset_sample // 120
        end_window = (seizure.onset_sample + seizure.duration_samples) // 120
        in_seizure = [
            w for w in result.detections[node]
            if onset_window <= w <= end_window + 2
        ]
        assert len(in_seizure) >= len(result.detections[node]) * 0.5

    def test_propagation_confirmed(self, result):
        assert result.confirmations, "correlated seizure must be confirmed"
        assert result.signal_exchanges >= len(result.confirmations)

    def test_confirmations_trigger_stimulation(self, result):
        assert len(result.stimulations) == len(result.confirmations)

    def test_hash_broadcasts_counted(self, result):
        assert result.hash_broadcasts > 0
        assert result.hash_rounds_lost == 0  # no loss configured

    def test_confirmations_carry_collision_multiplicity(self, result):
        assert all(e.n_collisions >= 1 for e in result.confirmations)


class TestErrorKnobs:
    def test_packet_loss_reduces_confirmations(self, small_recording, detector):
        lsh = LSHFamily.for_measure("dtw")
        clean = SeizurePropagationSimulator(
            small_recording, detector, lsh, dtw_threshold=250.0
        ).run()
        lossy = SeizurePropagationSimulator(
            small_recording, detector, lsh, dtw_threshold=250.0,
            packet_loss_rate=0.9, seed=5,
        ).run()
        assert lossy.hash_rounds_lost > 0
        assert len(lossy.confirmations) < len(clean.confirmations)

    def test_hash_errors_reduce_confirmations(self, small_recording, detector):
        lsh = LSHFamily.for_measure("dtw")
        clean = SeizurePropagationSimulator(
            small_recording, detector, lsh, dtw_threshold=250.0
        ).run()
        noisy = SeizurePropagationSimulator(
            small_recording, detector, lsh, dtw_threshold=250.0,
            hash_error_rate=0.95, seed=5,
        ).run()
        assert len(noisy.confirmations) < len(clean.confirmations)

    def test_bad_rates_rejected(self, small_recording, detector):
        lsh = LSHFamily.for_measure("dtw")
        with pytest.raises(ConfigurationError):
            SeizurePropagationSimulator(
                small_recording, detector, lsh, hash_error_rate=1.5
            )
        with pytest.raises(ConfigurationError):
            SeizurePropagationSimulator(
                small_recording, detector, lsh, packet_loss_rate=1.0
            )
