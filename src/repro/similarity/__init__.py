"""Exact signal-similarity measures: DTW, Euclidean, XCOR, EMD."""
