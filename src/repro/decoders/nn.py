"""Shallow feed-forward networks and their distributed decomposition.

SCALO supports the shallow decoder of Willsey et al. (movement pipeline
C): one hidden ReLU layer with input normalisation, mapped onto the MAD
PEs.  Distribution splits the *input* dimension: each node multiplies its
own feature slice by the corresponding weight columns, producing a partial
pre-activation vector; the aggregator sums the partials, adds the bias,
applies ReLU, and runs the (small) output layer — identical maths to the
centralised network (paper §3.1: "NNs are similarly decomposed by
distributing the rows of the weight matrices").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.linalg.mad import PostOp, mad
from repro.linalg.tiling import split_even


@dataclass
class ShallowNN:
    """A 1-hidden-layer ReLU network with input normalisation."""

    w_hidden: np.ndarray  # (n_hidden, n_features)
    b_hidden: np.ndarray  # (n_hidden,)
    w_out: np.ndarray  # (n_outputs, n_hidden)
    b_out: np.ndarray  # (n_outputs,)
    input_mean: np.ndarray | float = 0.0
    input_std: np.ndarray | float = 1.0

    def __post_init__(self) -> None:
        self.w_hidden = np.atleast_2d(np.asarray(self.w_hidden, dtype=float))
        self.w_out = np.atleast_2d(np.asarray(self.w_out, dtype=float))
        self.b_hidden = np.atleast_1d(np.asarray(self.b_hidden, dtype=float))
        self.b_out = np.atleast_1d(np.asarray(self.b_out, dtype=float))
        if self.w_hidden.shape[0] != self.b_hidden.shape[0]:
            raise ConfigurationError("hidden bias size mismatch")
        if self.w_out.shape[1] != self.w_hidden.shape[0]:
            raise ConfigurationError("output layer width mismatch")
        if self.w_out.shape[0] != self.b_out.shape[0]:
            raise ConfigurationError("output bias size mismatch")

    @property
    def n_features(self) -> int:
        return self.w_hidden.shape[1]

    @property
    def n_hidden(self) -> int:
        return self.w_hidden.shape[0]

    def forward(self, features: np.ndarray) -> np.ndarray:
        """Centralised inference, expressed with the MAD PE post-ops."""
        features = np.asarray(features, dtype=float)
        normalise = PostOp(
            normalise=True, mean=self.input_mean, std=self.input_std
        )
        x = normalise.apply(features)
        hidden = mad(self.w_hidden, x, self.b_hidden, PostOp(relu=True))
        return mad(self.w_out, hidden, self.b_out)


@dataclass
class PartialNN:
    """One node's input-slice of a decomposed shallow network."""

    w_hidden_cols: np.ndarray  # (n_hidden, span)
    feature_span: tuple[int, int]
    input_mean: np.ndarray | float
    input_std: np.ndarray | float

    def partial_preactivation(self, local_features: np.ndarray) -> np.ndarray:
        x = np.asarray(local_features, dtype=float)
        expected = self.feature_span[1] - self.feature_span[0]
        if x.shape[-1] != expected:
            raise ConfigurationError(
                f"node expected {expected} features, got {x.shape[-1]}"
            )
        x = PostOp(normalise=True, mean=self.input_mean, std=self.input_std).apply(x)
        return x @ self.w_hidden_cols.T

    @property
    def wire_bytes(self) -> int:
        """Bytes shipped per decision: one fp/fixed value per hidden unit.

        The paper's MI-NN transmits 1024 B per node — a 256-unit hidden
        layer at 4 B per value.
        """
        return 4 * self.w_hidden_cols.shape[0]


def decompose_nn(nn: ShallowNN, n_nodes: int) -> list[PartialNN]:
    """Split the input dimension of the hidden layer across nodes."""
    if n_nodes < 1:
        raise ConfigurationError("need at least one node")
    spans = split_even(nn.n_features, n_nodes)
    mean = np.broadcast_to(np.asarray(nn.input_mean, dtype=float), (nn.n_features,))
    std = np.broadcast_to(np.asarray(nn.input_std, dtype=float), (nn.n_features,))
    return [
        PartialNN(
            nn.w_hidden[:, start:stop],
            (start, stop),
            mean[start:stop].copy(),
            std[start:stop].copy(),
        )
        for start, stop in spans
    ]


def aggregate_nn(
    nn: ShallowNN, partial_preactivations: list[np.ndarray]
) -> np.ndarray:
    """Aggregator: sum partials, bias + ReLU, then the output layer."""
    if not partial_preactivations:
        raise ConfigurationError("no partials to aggregate")
    hidden_pre = np.sum(
        np.stack([np.asarray(p, dtype=float) for p in partial_preactivations]),
        axis=0,
    )
    hidden = np.maximum(hidden_pre + nn.b_hidden, 0.0)
    return mad(nn.w_out, hidden, nn.b_out)


def distributed_forward(nn: ShallowNN, node_features: list[np.ndarray]) -> np.ndarray:
    """End-to-end distributed inference (equals centralised forward)."""
    partials = decompose_nn(nn, len(node_features))
    preactivations = [
        p.partial_preactivation(f) for p, f in zip(partials, node_features)
    ]
    return aggregate_nn(nn, preactivations)


def train_shallow_nn(
    features: np.ndarray,
    targets: np.ndarray,
    n_hidden: int = 32,
    epochs: int = 200,
    lr: float = 1e-2,
    seed: int = 0,
) -> ShallowNN:
    """Train a regression network with plain full-batch gradient descent.

    Sufficient for the synthetic movement-decoding workloads; kept
    dependency-free on purpose.
    """
    x = np.asarray(features, dtype=float)
    y = np.atleast_2d(np.asarray(targets, dtype=float))
    if y.shape[0] == x.shape[0] and y.ndim == 2:
        pass
    elif y.shape[1] == x.shape[0]:
        y = y.T
    else:
        raise ConfigurationError("targets must align with features")

    mean = x.mean(axis=0)
    std = x.std(axis=0)
    std[std == 0] = 1.0
    xn = (x - mean) / std

    rng = np.random.default_rng(seed)
    w1 = rng.normal(scale=np.sqrt(2.0 / x.shape[1]), size=(n_hidden, x.shape[1]))
    b1 = np.zeros(n_hidden)
    w2 = rng.normal(scale=np.sqrt(1.0 / n_hidden), size=(y.shape[1], n_hidden))
    b2 = np.zeros(y.shape[1])

    n = x.shape[0]
    for _ in range(epochs):
        pre = xn @ w1.T + b1
        hidden = np.maximum(pre, 0.0)
        out = hidden @ w2.T + b2
        grad_out = 2.0 * (out - y) / n
        grad_w2 = grad_out.T @ hidden
        grad_b2 = grad_out.sum(axis=0)
        grad_hidden = (grad_out @ w2) * (pre > 0)
        grad_w1 = grad_hidden.T @ xn
        grad_b1 = grad_hidden.sum(axis=0)
        w2 -= lr * grad_w2
        b2 -= lr * grad_b2
        w1 -= lr * grad_w1
        b1 -= lr * grad_b1

    return ShallowNN(w1, b1, w2, b2, input_mean=mean, input_std=std)
