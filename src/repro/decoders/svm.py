"""Linear SVM classification and its distributed decomposition.

SCALO decomposes linear classifiers hierarchically: each node computes a
*partial* dot product over its own electrodes' features and ships only
that scalar (4 B per class) to an aggregator, which adds the partials and
the bias — mathematically identical to the centralised classifier, so
"decomposing linear SVMs is trivial and does not affect accuracy"
(paper §3.1).  Multi-class uses one-vs-rest rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.linalg.tiling import split_even

#: L2 weight decay, epoch count and initial step of :func:`train_linear_svm`.
L2 = 1e-2
EPOCHS = 60
LEARNING_RATE = 0.05


@dataclass
class LinearSVM:
    """A trained linear classifier: ``scores = W @ x + b``.

    For binary problems ``W`` has one row and the decision is the score's
    sign; multi-class takes the arg-max row.
    """

    weights: np.ndarray  # (n_classes, n_features)
    bias: np.ndarray  # (n_classes,)

    def __post_init__(self) -> None:
        self.weights = np.atleast_2d(np.asarray(self.weights, dtype=float))
        self.bias = np.atleast_1d(np.asarray(self.bias, dtype=float))
        if self.weights.shape[0] != self.bias.shape[0]:
            raise ConfigurationError("one bias per class row required")

    @property
    def n_features(self) -> int:
        return self.weights.shape[1]

    @property
    def n_classes(self) -> int:
        return self.weights.shape[0]

    def scores(self, features: np.ndarray) -> np.ndarray:
        features = np.asarray(features, dtype=float)
        if features.shape[-1] != self.n_features:
            raise ConfigurationError(
                f"expected {self.n_features} features, got {features.shape[-1]}"
            )
        return features @ self.weights.T + self.bias

    def predict(self, features: np.ndarray) -> np.ndarray | int:
        """Class index (multi-class) or {0, 1} (binary)."""
        score = self.scores(features)
        if self.n_classes == 1:
            result = (score > 0).astype(int).squeeze(-1)
        else:
            result = np.argmax(score, axis=-1)
        return int(result) if np.ndim(result) == 0 else result


@dataclass
class PartialSVM:
    """One node's slice of a decomposed SVM (a contiguous feature span)."""

    weights: np.ndarray  # (n_classes, span_features)
    feature_span: tuple[int, int]

    def partial_scores(self, local_features: np.ndarray) -> np.ndarray:
        local_features = np.asarray(local_features, dtype=float)
        expected = self.feature_span[1] - self.feature_span[0]
        if local_features.shape[-1] != expected:
            raise ConfigurationError(
                f"node expected {expected} local features, "
                f"got {local_features.shape[-1]}"
            )
        return local_features @ self.weights.T


def decompose_svm(svm: LinearSVM, n_nodes: int) -> list[PartialSVM]:
    """Split an SVM's feature dimension across ``n_nodes`` implants."""
    if n_nodes < 1:
        raise ConfigurationError("need at least one node")
    spans = split_even(svm.n_features, n_nodes)
    return [
        PartialSVM(svm.weights[:, start:stop], (start, stop))
        for start, stop in spans
    ]


def aggregate_scores(
    partials: list[np.ndarray], bias: np.ndarray
) -> np.ndarray:
    """The aggregator node: sum partial scores and add the bias."""
    if not partials:
        raise ConfigurationError("no partial scores to aggregate")
    total = np.sum(np.stack([np.asarray(p, dtype=float) for p in partials]), axis=0)
    return total + np.asarray(bias, dtype=float)


def distributed_predict(
    svm: LinearSVM, node_features: list[np.ndarray]
) -> int:
    """End-to-end distributed classification over per-node feature slices.

    Equivalent to ``svm.predict(concat(node_features))`` — the equality the
    tests assert.
    """
    partials = decompose_svm(svm, len(node_features))
    scores = aggregate_scores(
        [p.partial_scores(f) for p, f in zip(partials, node_features)], svm.bias
    )
    if svm.n_classes == 1:
        return int(scores.squeeze() > 0)
    return int(np.argmax(scores))


def train_linear_svm(
    features: np.ndarray,
    labels: np.ndarray,
    n_classes: int | None = None,
    seed: int = 0,
) -> LinearSVM:
    """Train by SGD on the hinge loss (one-vs-rest for multi-class).

    Small and dependency-free; adequate for the band-power features these
    pipelines use.  Features are z-scored internally and the scaling is
    folded back into the returned weights so inference needs no separate
    normalisation step.
    """
    x = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=int)
    if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0]:
        raise ConfigurationError("features must be (n, d) with n labels")
    if n_classes is None:
        n_classes = int(y.max()) + 1 if y.max() > 1 else 2

    mean = x.mean(axis=0)
    std = x.std(axis=0)
    std[std == 0] = 1.0
    xn = (x - mean) / std

    rng = np.random.default_rng(seed)
    rows = 1 if n_classes == 2 else n_classes
    weights = np.zeros((rows, x.shape[1]))
    bias = np.zeros(rows)

    for row in range(rows):
        target = np.where(y == (1 if rows == 1 else row), 1.0, -1.0)
        w = np.zeros(x.shape[1])
        b = 0.0
        for epoch in range(EPOCHS):
            order = rng.permutation(x.shape[0])
            step = LEARNING_RATE / (1 + 0.1 * epoch)
            for i in order:
                margin = target[i] * (xn[i] @ w + b)
                if margin < 1:
                    w = (1 - step * L2) * w + step * target[i] * xn[i]
                    b += step * target[i]
                else:
                    w = (1 - step * L2) * w
        weights[row] = w
        bias[row] = b

    # fold the z-scoring into the weights: w.(x-m)/s + b = (w/s).x + (b - w.m/s)
    folded = weights / std
    folded_bias = bias - folded @ mean
    return LinearSVM(folded, folded_bias)
