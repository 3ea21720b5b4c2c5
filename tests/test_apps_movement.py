"""Tests for the three movement-intent pipelines."""

import numpy as np
import pytest

from repro.apps import movement
from repro.apps.movement import (
    MovementClassifierApp,
    MovementKalmanApp,
    MovementNNApp,
    generate_movement_session,
)
from repro.errors import ConfigurationError


@pytest.fixture(scope="module")
def session():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(movement, "STEP_WINDOW_SAMPLES", 80)
        return generate_movement_session(
            n_nodes=3, electrodes_per_node=8, n_steps=300, seed=0
        )


@pytest.fixture(scope="module")
def split(session):
    return session.split()


class TestSession:
    def test_shapes(self, session):
        assert session.states.shape == (300, 4)
        assert session.features.shape == (300, 24)
        assert session.labels.shape == (300,)

    def test_labels_are_direction_classes(self, session):
        assert set(np.unique(session.labels)) <= set(range(9))

    def test_node_features_partition(self, session):
        parts = session.node_features(10)
        assert len(parts) == 3
        assert np.allclose(np.concatenate(parts), session.features[10])

    def test_split_chronological(self, session):
        train, test = session.split(0.5)
        assert train.n_steps == 150 and test.n_steps == 150
        assert np.allclose(train.features[-1], session.features[149])

    def test_bad_split_rejected(self, session):
        with pytest.raises(ConfigurationError):
            session.split(1.5)

    def test_deterministic(self):
        a = generate_movement_session(n_steps=50, seed=3)
        b = generate_movement_session(n_steps=50, seed=3)
        assert np.array_equal(a.features, b.features)


class TestClassifier:
    def test_beats_chance_clearly(self, split):
        train, test = split
        app = MovementClassifierApp.train(train)
        assert app.accuracy(test) > 0.4  # chance is ~1/9

    def test_distributed_equals_centralised(self, split):
        train, test = split
        app = MovementClassifierApp.train(train)
        for t in range(0, test.n_steps, 37):
            assert app.decode_step(test, t) == app.svm.predict(test.features[t])

    def test_wire_bytes(self, split):
        train, _ = split
        app = MovementClassifierApp.train(train)
        assert app.wire_bytes_per_node == 4 * app.svm.n_classes


class TestKalman:
    def test_velocity_decoding(self, split):
        train, test = split
        app = MovementKalmanApp.train(train)
        assert app.velocity_correlation(test) > 0.8

    def test_wire_bytes_per_electrode(self, split):
        train, _ = split
        app = MovementKalmanApp.train(train)
        assert app.wire_bytes_per_node == 4 * 8  # 4 B per electrode


class TestNN:
    def test_velocity_decoding(self, split):
        train, test = split
        app = MovementNNApp.train(train, epochs=120)
        assert app.velocity_correlation(test) > 0.7

    def test_wire_bytes_per_hidden_unit(self, split):
        train, _ = split
        app = MovementNNApp.train(train, n_hidden=32, epochs=10)
        assert app.wire_bytes_per_node == 4 * 32

    def test_distributed_equals_centralised(self, split):
        train, test = split
        app = MovementNNApp.train(train, epochs=30)
        step = 5
        distributed = app.decode_step(test, step)
        centralised = app.nn.forward(test.features[step])
        assert np.allclose(distributed, centralised, atol=1e-10)
