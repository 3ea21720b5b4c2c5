"""Tests for the decoders and their distributed decompositions."""

import numpy as np
import pytest

from repro.decoders.kalman import KalmanFilter, KalmanModel, fit_kalman
from repro.decoders.nn import (
    ShallowNN,
    aggregate_nn,
    decompose_nn,
    distributed_forward,
    train_shallow_nn,
)
from repro.decoders.svm import (
    LinearSVM,
    aggregate_scores,
    decompose_svm,
    distributed_predict,
    train_linear_svm,
)
from repro.errors import ConfigurationError


class TestLinearSVM:
    def test_binary_predict(self):
        svm = LinearSVM(weights=np.array([[1.0, -1.0]]), bias=np.array([0.0]))
        assert svm.predict(np.array([2.0, 1.0])) == 1
        assert svm.predict(np.array([1.0, 2.0])) == 0

    def test_multiclass_argmax(self):
        svm = LinearSVM(weights=np.eye(3), bias=np.zeros(3))
        assert svm.predict(np.array([0.0, 5.0, 1.0])) == 1

    def test_training_separable(self, rng):
        means = rng.normal(scale=4, size=(3, 8))
        x = np.vstack([m + rng.normal(size=(40, 8)) for m in means])
        y = np.repeat(np.arange(3), 40)
        svm = train_linear_svm(x, y, n_classes=3)
        assert np.mean(svm.predict(x) == y) > 0.95

    def test_decomposition_exact(self, rng):
        """The paper: decomposing linear SVMs does not affect accuracy."""
        svm = LinearSVM(rng.normal(size=(4, 12)), rng.normal(size=4))
        for _ in range(20):
            x = rng.normal(size=12)
            parts = [x[:4], x[4:8], x[8:]]  # split_even's 3-way spans
            assert distributed_predict(svm, parts) == svm.predict(x)

    def test_partial_wire_bytes(self, rng):
        svm = LinearSVM(rng.normal(size=(9, 12)), rng.normal(size=9))
        partials = decompose_svm(svm, 3)
        assert all(p.wire_bytes == 36 for p in partials)

    def test_partial_scores_sum_to_full(self, rng):
        svm = LinearSVM(rng.normal(size=(2, 10)), rng.normal(size=2))
        x = rng.normal(size=10)
        partials = decompose_svm(svm, 2)
        scores = aggregate_scores(
            [partials[0].partial_scores(x[:5]),
             partials[1].partial_scores(x[5:])],
            svm.bias,
        )
        assert np.allclose(scores, svm.scores(x))

    def test_empty_aggregation_rejected(self):
        with pytest.raises(ConfigurationError):
            aggregate_scores([], np.zeros(1))

    def test_wrong_feature_count_rejected(self, rng):
        svm = LinearSVM(rng.normal(size=(1, 6)), np.zeros(1))
        partial = decompose_svm(svm, 2)[0]
        with pytest.raises(ConfigurationError):
            partial.partial_scores(np.zeros(5))


class TestShallowNN:
    def test_forward_shapes(self, rng):
        nn = ShallowNN(
            rng.normal(size=(8, 12)), np.zeros(8),
            rng.normal(size=(2, 8)), np.zeros(2),
        )
        assert nn.forward(rng.normal(size=12)).shape == (2,)

    def test_decomposition_exact(self, rng):
        """Distributed NN inference equals centralised inference."""
        nn = ShallowNN(
            rng.normal(size=(16, 12)), rng.normal(size=16),
            rng.normal(size=(3, 16)), rng.normal(size=3),
            input_mean=rng.normal(size=12),
            input_std=np.abs(rng.normal(size=12)) + 0.5,
        )
        for _ in range(10):
            x = rng.normal(size=12)
            parts = [x[:4], x[4:8], x[8:]]
            assert np.allclose(
                distributed_forward(nn, parts), nn.forward(x), atol=1e-10
            )

    def test_partial_wire_bytes_match_hidden_width(self, rng):
        nn = ShallowNN(
            rng.normal(size=(256, 8)), np.zeros(256),
            rng.normal(size=(2, 256)), np.zeros(2),
        )
        partial = decompose_nn(nn, 2)[0]
        assert partial.wire_bytes == 1024  # the paper's MI-NN payload

    def test_training_learns_linear_map(self, rng):
        x = rng.normal(size=(300, 6))
        y = (x[:, :2] @ np.array([[1.0], [2.0]]))
        nn = train_shallow_nn(x, y, n_hidden=16, epochs=300, lr=5e-3)
        pred = np.stack([nn.forward(row) for row in x[:50]])
        corr = np.corrcoef(pred[:, 0], y[:50, 0])[0, 1]
        assert corr > 0.9

    def test_empty_aggregation_rejected(self, rng):
        nn = ShallowNN(np.zeros((2, 2)), np.zeros(2), np.zeros((1, 2)),
                       np.zeros(1))
        with pytest.raises(ConfigurationError):
            aggregate_nn(nn, [])

    def test_layer_shape_validation(self):
        with pytest.raises(ConfigurationError):
            ShallowNN(np.zeros((4, 3)), np.zeros(4), np.zeros((2, 5)),
                      np.zeros(2))


class TestKalman:
    def _make_tracking_problem(self, rng, n_obs=8, n_steps=300):
        states = np.zeros((n_steps, 4))
        for t in range(1, n_steps):
            states[t, 2:] = 0.95 * states[t - 1, 2:] + 0.1 * rng.standard_normal(2)
            states[t, :2] = states[t - 1, :2] + states[t - 1, 2:]
        h = rng.normal(size=(n_obs, 4))
        obs = states @ h.T + 0.1 * rng.standard_normal((n_steps, n_obs))
        return states, obs

    def test_fit_and_track(self, rng):
        states, obs = self._make_tracking_problem(rng)
        model = fit_kalman(states, obs)
        kf = KalmanFilter(model)
        decoded = kf.run(obs)
        corr = np.corrcoef(decoded[50:, 0], states[50:, 0])[0, 1]
        assert corr > 0.95

    def test_step_reduces_uncertainty(self, rng):
        states, obs = self._make_tracking_problem(rng)
        model = fit_kalman(states, obs)
        kf = KalmanFilter(model)
        trace_before = np.trace(kf.covariance)
        kf.step(obs[0])
        assert np.trace(kf.covariance) < trace_before

    def test_wrong_observation_size_rejected(self, rng):
        states, obs = self._make_tracking_problem(rng)
        kf = KalmanFilter(fit_kalman(states, obs))
        with pytest.raises(ConfigurationError):
            kf.step(np.zeros(3))

    def test_model_shape_validation(self):
        with pytest.raises(ConfigurationError):
            KalmanModel(np.eye(4), np.eye(3), np.zeros((8, 4)), np.eye(8))

    def test_misaligned_fit_rejected(self):
        with pytest.raises(ConfigurationError):
            fit_kalman(np.zeros((10, 4)), np.zeros((9, 8)))
