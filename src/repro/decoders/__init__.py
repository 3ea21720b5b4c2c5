"""Neural decoders: linear SVM, shallow NN, Kalman filter + decomposition."""

from repro.decoders.kalman import KalmanFilter, KalmanModel, fit_kalman
from repro.decoders.nn import (
    PartialNN,
    ShallowNN,
    aggregate_nn,
    decompose_nn,
    distributed_forward,
    train_shallow_nn,
)
from repro.decoders.svm import (
    LinearSVM,
    PartialSVM,
    aggregate_scores,
    decompose_svm,
    distributed_predict,
    train_linear_svm,
)

__all__ = [
    "KalmanFilter",
    "KalmanModel",
    "fit_kalman",
    "PartialNN",
    "ShallowNN",
    "aggregate_nn",
    "decompose_nn",
    "distributed_forward",
    "train_shallow_nn",
    "LinearSVM",
    "PartialSVM",
    "aggregate_scores",
    "decompose_svm",
    "distributed_predict",
    "train_linear_svm",
]
