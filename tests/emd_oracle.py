"""Reference EMD histogram, EMD and EMDH hash: the one-window scalar forms.

:func:`histogram` is the per-row ``np.histogram`` loop
:func:`repro.similarity.emd.signal_to_histogram` must reproduce element
for element, :func:`emd_signal` the pairwise cost
:func:`repro.similarity.emd.emd_rows` must reproduce bit for bit, and
:func:`hash_window` the per-window arithmetic
:meth:`repro.hashing.emd_hash.EMDHash.hash_windows` must reproduce row
for row.  Slow by design; used only by the tests.
"""

from __future__ import annotations

import numpy as np

from repro.hashing.emd_hash import EMDHash


def histogram(
    window: np.ndarray, n_bins: int, value_range: tuple[float, float]
) -> np.ndarray:
    """``np.histogram`` counts of one window, or of each row of a batch."""
    rows = np.asarray(window, dtype=float)
    if rows.ndim == 1:
        return np.histogram(rows, bins=n_bins, range=value_range)[0].astype(float)
    return np.stack([histogram(row, n_bins, value_range) for row in rows])


def emd_1d(hist_a: np.ndarray, hist_b: np.ndarray) -> float:
    """Unit-mass EMD of two 1-D histograms: L1 between their CDFs."""
    a = np.asarray(hist_a, dtype=float)
    b = np.asarray(hist_b, dtype=float)
    return float(np.sum(np.abs(np.cumsum(a / a.sum() - b / b.sum()))))


def emd_signal(
    window_a: np.ndarray,
    window_b: np.ndarray,
    n_bins: int,
    value_range: tuple[float, float],
) -> float:
    """EMD between two windows' amplitude histograms over a fixed range."""
    return emd_1d(
        histogram(window_a, n_bins, value_range),
        histogram(window_b, n_bins, value_range),
    )


def zscore(window: np.ndarray) -> np.ndarray:
    """Z-score one window; a zero-variance window is only centred."""
    x = np.asarray(window, dtype=float)
    std = x.std()
    return (x - x.mean()) / std if std > 0 else x - x.mean()


def hash_window(hasher: EMDHash, window: np.ndarray) -> tuple[int, ...]:
    """What ``hasher.hash_window(window)`` must return, one component at a time."""
    window = np.asarray(window, dtype=float)
    if hasher.normalise:
        window = zscore(window)
    hist = histogram(window, hasher.n_bins, hasher.value_range)
    total = hist.sum()
    if total > 0:
        hist = hist / total
    components = []
    for projection, offset in zip(hasher._projections, hasher._offsets):
        value = np.sqrt(max(float(hist @ projection), 0.0))
        components.append(int(np.floor((value + offset) / hasher.bucket_width)))
    return tuple(components)
