"""Earth Mover's Distance (fast 1-D version run on the microcontroller).

The paper uses the fast EMD of Pele & Werman; for 1-D histograms with unit
ground distance the EMD has a closed form — the L1 distance between the
cumulative distributions — which is what SCALO's MC computes.

Everything here runs on whole batches: :func:`signal_to_histogram` bins
every row of a ``(rows, samples)`` array against one set of edges in one
pass, and :func:`emd_rows` scores one histogram against every row of a
``(k, bins)`` array with one normalise/cumsum/abs/sum.  :func:`emd_1d` and
:func:`emd_signal` are their one-pair forms.  :func:`zscore_rows` is the
gain/offset normalisation the EMD comparator and the EMDH hash share.
The per-row ``np.histogram`` loop and the pairwise scalar forms these
kernels replace live in ``tests/emd_oracle.py`` as the reference.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError


def zscore_rows(rows: np.ndarray) -> np.ndarray:
    """Z-score each row of ``(rows, samples)`` (or one 1-D window).

    A zero-variance row is only centred, so a constant window maps to
    all-zeros whatever its level — the gain/offset invariance both the
    EMD comparator and its hash promise.
    """
    x = np.asarray(rows, dtype=float)
    mean = x.mean(axis=-1, keepdims=True)
    std = x.std(axis=-1, keepdims=True)
    centred = x - mean
    return np.divide(centred, std, out=centred, where=std > 0)


def _auto_range(samples: np.ndarray) -> tuple[float, float]:
    """The samples' own ``[min, max]``, widened by one when constant."""
    if samples.size == 0:
        raise ConfigurationError("cannot derive a value range from no samples")
    lo, hi = float(samples.min()), float(samples.max())
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ConfigurationError(
            f"derived value range [{lo}, {hi}] is not finite"
        )
    return (lo, lo + 1.0) if lo == hi else (lo, hi)


def signal_to_histogram(
    window: np.ndarray, n_bins: int = 16, value_range: tuple[float, float] | None = None
) -> np.ndarray:
    """Quantise signal windows into amplitude histograms for EMD.

    Spike-sorting pipelines compare spike *waveshapes*; histogramming the
    amplitudes gives a shift-tolerant signature (Grossberger et al. style).

    ``window`` is one ``(samples,)`` window or a ``(rows, samples)``
    batch; the result is ``(n_bins,)`` or ``(rows, n_bins)`` float counts.
    Every row shares one value range: ``value_range``, or without it the
    ``[min, max]`` of all samples (widened by one when they are equal).
    Bins are those of ``np.histogram(row, n_bins, value_range)`` for
    bins many float steps wide (every caller's are): the same
    ``np.linspace`` edges, each bin half-open except the last, which
    includes the upper edge.  Samples outside the range (NaN and +-inf
    too) are dropped under a fixed range; under a derived one they raise.
    """
    rows = np.asarray(window, dtype=float)
    if rows.ndim not in (1, 2):
        raise ConfigurationError("expected a (samples,) or (rows, samples) window")
    if n_bins < 2:
        raise ConfigurationError("need at least two bins")
    if value_range is None:
        lo, hi = _auto_range(rows)
    else:
        lo, hi = value_range
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise ConfigurationError("invalid value range")
    edges = np.linspace(lo, hi, n_bins + 1)
    batch = rows if rows.ndim == 2 else rows[None]
    keep = (batch >= lo) & (batch <= hi)
    row_of, _ = np.nonzero(keep)
    # the last bin is closed: a sample on ``hi`` counts in bin n_bins - 1
    bins = np.minimum(
        np.searchsorted(edges, batch[keep], side="right") - 1, n_bins - 1
    )
    counts = np.bincount(
        row_of * n_bins + bins, minlength=batch.shape[0] * n_bins
    ).astype(float)
    return counts.reshape(rows.shape[:-1] + (n_bins,))


def emd_rows(
    hist: np.ndarray, rows: np.ndarray, normalise: bool = True
) -> np.ndarray:
    """EMD from one histogram to each row of ``(k, bins)``, unit ground distance.

    With ``normalise`` every histogram is scaled to unit mass first (the
    usual definition for signatures of unequal total); without it they
    must already have equal mass.

    Returns:
        ``(k,)`` float costs; entry ``i`` is ``emd_1d(hist, rows[i])``.
    """
    a = np.asarray(hist, dtype=float)
    b = np.asarray(rows, dtype=float)
    if a.ndim != 1 or b.ndim != 2 or b.shape[1] != a.shape[0]:
        raise ConfigurationError("expect a (bins,) histogram and (k, bins) rows")
    if np.any(a < 0) or np.any(b < 0):
        raise ConfigurationError("histogram masses must be non-negative")
    mass_a, mass_b = a.sum(), b.sum(axis=1)
    if normalise:
        if mass_a == 0 or np.any(mass_b == 0):
            raise ConfigurationError("cannot normalise an empty histogram")
        a = a / mass_a
        b = b / mass_b[:, None]
    elif not np.all(np.isclose(mass_a, mass_b)):
        raise ConfigurationError(
            f"unnormalised EMD needs equal mass ({mass_a} != {mass_b})"
        )
    return np.abs(np.cumsum(a - b, axis=1)).sum(axis=1)


def emd_1d(hist_a: np.ndarray, hist_b: np.ndarray, normalise: bool = True) -> float:
    """EMD between two 1-D histograms: the one-pair :func:`emd_rows`."""
    a = np.asarray(hist_a, dtype=float)
    b = np.asarray(hist_b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ConfigurationError("expect two equal-length 1-D histograms")
    return float(emd_rows(a, b[None], normalise)[0])


def emd_signal(
    window_a: np.ndarray,
    window_b: np.ndarray,
    n_bins: int = 16,
    value_range: tuple[float, float] | None = None,
) -> float:
    """EMD between the amplitude histograms of two signal windows.

    When no explicit range is given, a shared range covering both windows
    is used so the histograms are comparable.
    """
    a = np.asarray(window_a, dtype=float)
    b = np.asarray(window_b, dtype=float)
    if a.ndim != 1 or b.ndim != 1:
        raise ConfigurationError("expected two 1-D windows")
    if value_range is None:
        value_range = _auto_range(np.concatenate([a, b]))
    return emd_1d(
        signal_to_histogram(a, n_bins, value_range),
        signal_to_histogram(b, n_bins, value_range),
    )
