"""Unified similarity-measure registry with thresholded match decisions.

The paper's pipelines decide "similar / not similar" by comparing a
measure against a clinician-set threshold (§6.5).  Measures disagree in
polarity — higher cross-correlation means *more* similar, higher DTW cost
means *less* similar — so this module wraps each measure with its polarity
and provides one polarity rule, :meth:`Measure.similar`, used by both the
exact comparators and the hash-accuracy experiments.

Each measure is one rows callable scoring ``(k, samples)`` windows against
``(k, samples)`` partners: DTW runs every pair through one
:func:`~repro.similarity.dtw.dtw_rows` call, the others loop over pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import ConfigurationError
from repro.similarity.dtw import dtw_rows
from repro.similarity.emd import emd_signal, zscore_rows
from repro.similarity.xcor import max_cross_correlation


def euclidean_distance(series_a: np.ndarray, series_b: np.ndarray) -> float:
    """Plain L2 distance between equal-length windows."""
    a = np.asarray(series_a, dtype=float)
    b = np.asarray(series_b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ConfigurationError("expect two equal-length 1-D series")
    return float(np.linalg.norm(a - b))


@dataclass(frozen=True)
class Measure:
    """A similarity measure plus its match polarity.

    ``rows(a, b)`` scores row ``i`` of ``a`` against row ``i`` of ``b``
    and returns ``(k,)`` values; calling the measure scores one pair.
    ``higher_is_similar`` is True for correlation-type measures and False
    for distance-type measures.
    """

    name: str
    rows: Callable[[np.ndarray, np.ndarray], np.ndarray]
    higher_is_similar: bool

    def __call__(self, a: np.ndarray, b: np.ndarray) -> float:
        return float(self.rows(np.asarray(a)[None], np.asarray(b)[None])[0])

    def similar(self, values: np.ndarray, threshold: float) -> np.ndarray:
        """Thresholded match decisions for measure values, with the right
        polarity (``values >= threshold`` or ``values <= threshold``)."""
        values = np.asarray(values, dtype=float)
        if self.higher_is_similar:
            return values >= threshold
        return values <= threshold


def _pairwise(
    pair: Callable[[np.ndarray, np.ndarray], float]
) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """The rows form of a one-pair measure: one call per pair of rows."""

    def rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.array([pair(x, y) for x, y in zip(a, b, strict=True)],
                        dtype=float)

    return rows


def _dtw_banded(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # band 10 on 120-sample windows mirrors the PE's Sakoe-Chiba setting
    return dtw_rows(a, b, band=10)


def _emd_normalised(a: np.ndarray, b: np.ndarray) -> float:
    """Amplitude-normalised EMD: z-score both windows, fixed bin range.

    Seizure propagation attenuates signals without changing their shape,
    so the comparator (and its EMDH hash twin) normalises gain away.
    """
    return emd_signal(zscore_rows(a), zscore_rows(b), n_bins=20,
                      value_range=(-4.0, 4.0))


def _xcor_lagged(a: np.ndarray, b: np.ndarray) -> float:
    # cross-correlation searches lags (propagating activity arrives with a
    # site-to-site delay); +-10 samples matches the DTW band setting
    return max_cross_correlation(a, b, max_lag=10)


MEASURES: dict[str, Measure] = {
    "dtw": Measure("dtw", _dtw_banded, higher_is_similar=False),
    "euclidean": Measure(
        "euclidean", _pairwise(euclidean_distance), higher_is_similar=False
    ),
    "xcor": Measure("xcor", _pairwise(_xcor_lagged), higher_is_similar=True),
    "emd": Measure("emd", _pairwise(_emd_normalised), higher_is_similar=False),
}


def get_measure(name: str) -> Measure:
    """Look up a measure by name (``dtw``, ``euclidean``, ``xcor``, ``emd``)."""
    try:
        return MEASURES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown measure {name!r}; choose from {sorted(MEASURES)}"
        ) from None
