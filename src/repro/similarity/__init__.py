"""Exact signal-similarity measures: DTW, Euclidean, XCOR, EMD."""

from repro.similarity.dtw import dtw_rows
from repro.similarity.emd import emd_1d, emd_signal, signal_to_histogram
from repro.similarity.measures import (
    MEASURES,
    Measure,
    euclidean_distance,
    get_measure,
)
from repro.similarity.xcor import (
    cross_correlation_lags,
    max_cross_correlation,
    pearson_correlation,
)

__all__ = [
    "dtw_rows",
    "emd_1d",
    "emd_signal",
    "signal_to_histogram",
    "MEASURES",
    "Measure",
    "euclidean_distance",
    "get_measure",
    "cross_correlation_lags",
    "max_cross_correlation",
    "pearson_correlation",
]
