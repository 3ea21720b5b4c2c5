"""Feature-extraction kernels: the software twins of SCALO's small PEs.

Implements spike-band power (SBP), the non-linear energy operator (NEO) and
amplitude thresholding (THR) used across the paper's pipelines (Figs. 5-7).
"""

from __future__ import annotations

import numpy as np

from repro.datasets.spikes import SPIKE_SAMPLES
from repro.errors import ConfigurationError

#: THR's refractory period (samples): a channel does not re-trigger
#: within it, so each spike yields one detection.
REFRACTORY_SAMPLES = 3 * SPIKE_SAMPLES // 4


def spike_band_power_multichannel(windows: np.ndarray) -> np.ndarray:
    """Spike-band power (the SBP PE) per channel of ``(n_channels, n_samples)``.

    The movement pipelines compute "the mean value of all neural signals in
    a time window (typically 50 ms)"; mean |x| is the standard SBP
    estimator.
    """
    windows = np.asarray(windows, dtype=float)
    if windows.ndim != 2:
        raise ConfigurationError("expected (channels, samples)")
    return np.mean(np.abs(windows), axis=1)


def nonlinear_energy(samples: np.ndarray) -> np.ndarray:
    """NEO PE: psi[n] = x[n]^2 - x[n-1] * x[n+1].

    Emphasises high-frequency, high-amplitude activity — the classic spike
    pre-detector.  Output has the same length as input; the two boundary
    values are zero.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 1:
        raise ConfigurationError("nonlinear_energy expects a 1-D stream")
    energy = np.zeros_like(samples)
    if samples.shape[0] >= 3:
        energy[1:-1] = samples[1:-1] ** 2 - samples[:-2] * samples[2:]
    return energy


def threshold_crossings(samples: np.ndarray, threshold: float) -> np.ndarray:
    """THR PE: indices where ``samples`` crosses above ``threshold``.

    :data:`REFRACTORY_SAMPLES` suppresses re-triggering inside a single
    event — one detection per spike.
    """
    samples = np.asarray(samples, dtype=float)
    above = samples > threshold
    crossings = np.flatnonzero(above[1:] & ~above[:-1]) + 1
    if samples.size and above[0]:
        crossings = np.concatenate([[0], crossings])
    if REFRACTORY_SAMPLES == 0 or crossings.size == 0:
        return crossings
    kept = [int(crossings[0])]
    for idx in crossings[1:]:
        if idx - kept[-1] > REFRACTORY_SAMPLES:
            kept.append(int(idx))
    return np.asarray(kept, dtype=np.int64)


#: Spike detection threshold: smoothed NEO energy above this many
#: MAD-based noise sigmas.
THRESHOLD_K_SIGMA = 10.0


def adaptive_threshold(samples: np.ndarray) -> float:
    """Robust spike threshold: :data:`THRESHOLD_K_SIGMA` times the
    MAD-based noise sigma estimate."""
    samples = np.asarray(samples, dtype=float)
    sigma = np.median(np.abs(samples - np.median(samples))) / 0.6745
    return float(THRESHOLD_K_SIGMA * sigma)
