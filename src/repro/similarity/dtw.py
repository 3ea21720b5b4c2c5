"""Dynamic time warping with a Sakoe-Chiba band (the DTW PE).

The DTW PE runs the standard dynamic-programming recurrence with a
configurable band parameter for speed; setting the band to 1 degenerates
DTW into the (scaled) Euclidean distance, which is how the same PE serves
both measures in the paper (§3.2, "Signal comparison").

:func:`dtw_rows` is the one DP: it scores ``(k, n)`` windows against
``(k, m)`` templates (or one ``(m,)`` template shared by every row) and
walks the cost matrix by anti-diagonals.  Every cell on diagonal
``d = i + j`` reads only diagonals ``d - 1`` and ``d - 2``, so one numpy
step fills a whole diagonal for every row: ``n + m - 1`` steps in all.
Each cell is still ``|a_i - b_j| + min(D[i-1, j], D[i, j-1],
D[i-1, j-1])``, the same subtraction, ``abs`` and addition on the same
operands as the cell-by-cell loop.  A ``min`` over finite floats and
``inf`` is exact and ignores the order of its operands, so the order in
which cells are filled cannot change a bit of the result.  The plain
cell-by-cell loop lives in ``tests/dtw_oracle.py`` as the reference.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError


def dtw_rows(
    windows: np.ndarray, templates: np.ndarray, band: int | None = None
) -> np.ndarray:
    """Banded DTW distance of each window row against its template row.

    Args:
        windows: ``(k, n)`` sample rows.
        templates: ``(k, m)`` rows, one per window, or one ``(m,)``
            template broadcast to every row without a copy.  ``n`` and
            ``m`` need not be equal.
        band: Sakoe-Chiba band half-width; ``None`` means unconstrained.
            A band narrower than the length difference is widened by it,
            so every band reaches ``(n, m)`` and the result is finite.
            ``band == 1`` with equal lengths reduces to the Manhattan (L1)
            alignment along the diagonal, i.e. a Euclidean-style lockstep
            comparison.

    Returns:
        ``(k,)`` float64 accumulated L1 alignment costs.
    """
    a = np.asarray(windows, dtype=float)
    b = np.asarray(templates, dtype=float)
    if a.ndim != 2 or b.ndim not in (1, 2) or (
        b.ndim == 2 and b.shape[0] != a.shape[0]
    ):
        raise ConfigurationError(
            "dtw_rows expects (k, samples) windows and a 1-D template or "
            "(k, samples) templates"
        )
    if a.shape[0] == 0:
        return np.empty(0, dtype=float)
    n, m = a.shape[1], b.shape[-1]
    if n == 0 or m == 0:
        raise ConfigurationError("dtw_rows expects non-empty series")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ConfigurationError("dtw_rows expects finite samples")
    if band is not None:
        if band < 1:
            raise ConfigurationError("band must be >= 1")
        if abs(n - m) > band - 1 and band != 1:
            # The band must at least cover the length difference.
            band = abs(n - m) + band
    effective_band = band if band is not None else max(n, m)

    if band == 1:
        if n != m:
            raise ConfigurationError("band=1 (lockstep) needs equal lengths")
        return np.sum(np.abs(a - b), axis=1)

    # Diagonal d holds D[i, d - i] at column i of a (k, n + 1) array;
    # cells off the grid or outside the band stay inf.  The template is
    # read reversed so that b[j - 1] = b[d - i - 1] rises with i.
    k = a.shape[0]
    reversed_b = b[..., ::-1]
    before_last = np.full((k, n + 1), np.inf)  # diagonal d - 2
    before_last[:, 0] = 0.0  # D[0, 0]
    last = np.full((k, n + 1), np.inf)  # diagonal d - 1
    current = np.empty((k, n + 1))
    for d in range(2, n + m + 1):
        lo = max(1, d - m, -((effective_band - d) // 2))
        hi = min(n, d - 1, (d + effective_band) // 2)
        current.fill(np.inf)
        if lo <= hi:
            cost = np.abs(
                a[:, lo - 1:hi] - reversed_b[..., m - d + lo:m - d + hi + 1]
            )
            current[:, lo:hi + 1] = cost + np.minimum(
                np.minimum(last[:, lo - 1:hi], last[:, lo:hi + 1]),
                before_last[:, lo - 1:hi],
            )
        before_last, last, current = last, current, before_last
    return last[:, n].copy()
