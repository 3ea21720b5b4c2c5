"""The Kalman-filter movement decoder (movement pipeline B).

Follows Wu et al. (NeurIPS 2002): the state is hand/cursor kinematics
(position + velocity), the observation is the per-electrode spike-band
power vector.  The update inverts the innovation covariance — an
``n_features x n_features`` matrix.  Because that matrix is large, SCALO
*centralises* this computation: every node ships its feature slice (4 B
per electrode) to one node which runs the whole filter, including the
Gauss-Jordan INV PE with NVM-streamed operands (paper §3.1, §4).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.linalg.inverse import gauss_jordan_inverse


@dataclass
class KalmanModel:
    """The fitted model matrices.

    Attributes:
        a: state transition ``(n_state, n_state)``.
        w: process noise covariance ``(n_state, n_state)``.
        h: observation matrix ``(n_obs, n_state)``.
        q: observation noise covariance ``(n_obs, n_obs)``.
    """

    a: np.ndarray
    w: np.ndarray
    h: np.ndarray
    q: np.ndarray

    def __post_init__(self) -> None:
        self.a = np.asarray(self.a, dtype=float)
        self.w = np.asarray(self.w, dtype=float)
        self.h = np.asarray(self.h, dtype=float)
        self.q = np.asarray(self.q, dtype=float)
        n_state = self.a.shape[0]
        if self.a.shape != (n_state, n_state):
            raise ConfigurationError("A must be square")
        if self.w.shape != (n_state, n_state):
            raise ConfigurationError("W must match A")
        if self.h.shape[1] != n_state:
            raise ConfigurationError("H columns must match the state size")
        n_obs = self.h.shape[0]
        if self.q.shape != (n_obs, n_obs):
            raise ConfigurationError("Q must match H rows")

    @property
    def n_state(self) -> int:
        return self.a.shape[0]

    @property
    def n_obs(self) -> int:
        return self.h.shape[0]


@dataclass
class KalmanFilter:
    """A running filter: model + (state, covariance) posterior.

    The previous step's output is saved to a buffer at the end of the
    pipeline (paper Fig. 6b) — here, the ``state``/``covariance`` fields.
    """

    model: KalmanModel
    state: np.ndarray = field(default=None)  # type: ignore[assignment]
    covariance: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.state is None:
            self.state = np.zeros(self.model.n_state)
        if self.covariance is None:
            self.covariance = np.eye(self.model.n_state)
        self.state = np.asarray(self.state, dtype=float)
        self.covariance = np.asarray(self.covariance, dtype=float)

    def step(self, observation: np.ndarray) -> np.ndarray:
        """One predict + update cycle; returns the new state estimate."""
        z = np.asarray(observation, dtype=float)
        if z.shape != (self.model.n_obs,):
            raise ConfigurationError(
                f"expected {self.model.n_obs} observations, got {z.shape}"
            )
        a, w, h, q = self.model.a, self.model.w, self.model.h, self.model.q

        # predict
        x_prior = a @ self.state
        p_prior = a @ self.covariance @ a.T + w

        # update (the INV PE inverts the innovation covariance)
        innovation_cov = h @ p_prior @ h.T + q
        gain = p_prior @ h.T @ gauss_jordan_inverse(innovation_cov)
        self.state = x_prior + gain @ (z - h @ x_prior)
        self.covariance = (
            np.eye(self.model.n_state) - gain @ h
        ) @ p_prior
        return self.state.copy()

    def run(self, observations: np.ndarray) -> np.ndarray:
        """Filter a whole sequence; returns ``(n_steps, n_state)``."""
        observations = np.asarray(observations, dtype=float)
        if observations.ndim != 2:
            raise ConfigurationError("expected (n_steps, n_obs)")
        return np.stack([self.step(z) for z in observations])


def fit_kalman(states: np.ndarray, observations: np.ndarray,
               ridge: float = 1e-6) -> KalmanModel:
    """Fit A, W, H, Q by least squares from paired trajectories.

    Args:
        states: ``(n_steps, n_state)`` ground-truth kinematics.
        observations: ``(n_steps, n_obs)`` simultaneous neural features.
    """
    x = np.asarray(states, dtype=float)
    z = np.asarray(observations, dtype=float)
    if x.ndim != 2 or z.ndim != 2 or x.shape[0] != z.shape[0]:
        raise ConfigurationError("states and observations must align")
    if x.shape[0] < max(x.shape[1], z.shape[1]) + 2:
        raise ConfigurationError("not enough steps to fit the model")

    x_prev, x_next = x[:-1], x[1:]
    reg_s = ridge * np.eye(x.shape[1])
    a = np.linalg.solve(x_prev.T @ x_prev + reg_s, x_prev.T @ x_next).T
    w_resid = x_next - x_prev @ a.T
    w = w_resid.T @ w_resid / max(1, x_prev.shape[0] - 1)

    h = np.linalg.solve(x.T @ x + reg_s, x.T @ z).T
    q_resid = z - x @ h.T
    q = q_resid.T @ q_resid / max(1, x.shape[0] - 1)
    # regularise the noise covariances so the filter stays invertible
    w += ridge * np.eye(w.shape[0])
    q += ridge * np.eye(q.shape[0])
    return KalmanModel(a, w, h, q)
