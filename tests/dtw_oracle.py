"""Reference DTW: the plain cell-by-cell banded DP for one pair of series.

:func:`dtw_distance` is the double loop
:func:`repro.similarity.dtw.dtw_rows` must reproduce bit for bit, row for
row, with the same validation and error text.  It fills the cost matrix
row by row and never calls the kernel it checks.  Slow by design; used
only by the tests.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError


def dtw_distance(
    series_a: np.ndarray, series_b: np.ndarray, band: int | None = None
) -> float:
    """Banded DTW distance between two 1-D series (see :func:`dtw_rows`)."""
    a = np.asarray(series_a, dtype=float)
    b = np.asarray(series_b, dtype=float)
    if a.ndim != 1 or b.ndim != 1:
        raise ConfigurationError("dtw_distance expects 1-D series")
    if a.size == 0 or b.size == 0:
        raise ConfigurationError("dtw_rows expects non-empty series")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ConfigurationError("dtw_rows expects finite samples")
    n, m = a.shape[0], b.shape[0]
    if band is not None:
        if band < 1:
            raise ConfigurationError("band must be >= 1")
        if abs(n - m) > band - 1 and band != 1:
            band = abs(n - m) + band
    effective_band = band if band is not None else max(n, m)

    if band == 1:
        if n != m:
            raise ConfigurationError("band=1 (lockstep) needs equal lengths")
        return float(np.sum(np.abs(a - b)))

    inf = np.inf
    prev = np.full(m + 1, inf)
    prev[0] = 0.0
    for i in range(1, n + 1):
        current = np.full(m + 1, inf)
        j_low = max(1, i - effective_band)
        j_high = min(m, i + effective_band)
        for j in range(j_low, j_high + 1):
            cost = abs(a[i - 1] - b[j - 1])
            current[j] = cost + min(prev[j], current[j - 1], prev[j - 1])
        prev = current
    return float(prev[m])
