"""Batched EMD kernels: histogram, EMD and EMDH hash against the oracle.

:func:`~repro.similarity.emd.signal_to_histogram` bins whole batches
with one ``searchsorted`` and one ``bincount``; these tests hold it
element-equal to ``np.histogram`` (the per-row loop in
``tests/emd_oracle.py``) on edge values, out-of-range and non-finite
samples, constant rows and one-row batches.  ``emd_rows`` and
``EMDHash.hash_windows`` are held bit-equal to the pairwise EMD and the
scalar EMDH arithmetic in the same oracle.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.hashing.emd_hash import EMDHash
from repro.similarity.emd import (
    emd_1d,
    emd_rows,
    emd_signal,
    signal_to_histogram,
)
from tests import emd_oracle


@st.composite
def fixed_range_batches(draw):
    """A ``(rows, samples)`` batch plus the fixed range and bin count.

    Samples mix the range's own edges (``lo``, ``hi`` and every interior
    edge), their neighbouring floats, out-of-range values, +-inf, NaN and
    plain in-range values; some rows are constant.  Ranges stay wide
    next to their magnitude, so each bin spans many float steps, as in
    every caller.
    """
    n_bins = draw(st.integers(2, 40))
    lo = draw(st.floats(-1e3, 1e3))
    hi = lo + draw(st.floats(1e-2, 1e3))
    edges = np.linspace(lo, hi, n_bins + 1).tolist()
    special = edges + [
        float(np.nextafter(lo, -np.inf)),
        float(np.nextafter(hi, np.inf)),
        float(np.nextafter(edges[n_bins // 2], np.inf)),
        lo - 1.0,
        hi + 1.0,
        np.inf,
        -np.inf,
        np.nan,
    ]
    value = st.one_of(st.sampled_from(special), st.floats(lo, hi))
    rows = draw(st.integers(1, 5))
    samples = draw(st.integers(0, 40))
    batch = np.array(
        draw(st.lists(value, min_size=rows * samples, max_size=rows * samples)),
        dtype=float,
    ).reshape(rows, samples)
    for r in range(rows):
        if samples and draw(st.booleans()):
            batch[r] = batch[r, 0]
    return batch, n_bins, (lo, hi)


class TestHistogramKernel:
    @settings(max_examples=120, deadline=None)
    @given(fixed_range_batches())
    def test_fixed_range_matches_numpy(self, case):
        batch, n_bins, value_range = case
        expected = emd_oracle.histogram(batch, n_bins, value_range)
        got = signal_to_histogram(batch, n_bins, value_range)
        assert got.shape == (batch.shape[0], n_bins)
        assert np.array_equal(got, expected)
        for row, hist in zip(batch, expected):
            assert np.array_equal(signal_to_histogram(row, n_bins, value_range), hist)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=60),
        st.integers(2, 40),
    )
    def test_auto_range_matches_numpy(self, milli, n_bins):
        window = np.asarray(milli, dtype=float) / 1000.0
        lo, hi = window.min(), window.max()
        expected, _ = np.histogram(
            window, bins=n_bins, range=(lo, hi if hi > lo else lo + 1.0)
        )
        got = signal_to_histogram(window, n_bins)
        assert np.array_equal(got, expected.astype(float))

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=30),
        st.sampled_from([np.nan, np.inf, -np.inf]),
        st.integers(0, 30),
    )
    def test_auto_range_rejects_non_finite(self, values, bad, at):
        window = np.insert(np.asarray(values, dtype=float), min(at, len(values)), bad)
        with pytest.raises(ConfigurationError):
            signal_to_histogram(window, 8)
        with pytest.raises(ConfigurationError):
            emd_signal(window, np.zeros(4))


@st.composite
def in_range_windows(draw):
    """Windows whose samples all lie in the fixed range (no empty rows)."""
    n_bins = draw(st.integers(2, 32))
    lo = draw(st.floats(-10.0, 10.0))
    hi = lo + draw(st.floats(0.1, 20.0))
    edges = np.linspace(lo, hi, n_bins + 1).tolist()
    value = st.one_of(st.sampled_from(edges), st.floats(lo, hi))
    rows = draw(st.integers(2, 6))
    samples = draw(st.integers(1, 40))
    batch = np.array(
        draw(st.lists(value, min_size=rows * samples, max_size=rows * samples)),
        dtype=float,
    ).reshape(rows, samples)
    return batch, n_bins, (lo, hi)


class TestEMDKernel:
    @settings(max_examples=80, deadline=None)
    @given(in_range_windows())
    def test_batched_costs_equal_pairwise_oracle(self, case):
        batch, n_bins, value_range = case
        hists = signal_to_histogram(batch, n_bins, value_range)
        expected = [
            emd_oracle.emd_signal(batch[0], other, n_bins, value_range)
            for other in batch[1:]
        ]
        assert emd_rows(hists[0], hists[1:]).tolist() == expected
        assert [
            emd_signal(batch[0], other, n_bins, value_range) for other in batch[1:]
        ] == expected
        assert [emd_1d(hists[0], h) for h in hists[1:]] == expected

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 24).flatmap(
            lambda bins: st.lists(
                st.lists(st.integers(0, 50), min_size=bins, max_size=bins).filter(any),
                min_size=2,
                max_size=6,
            )
        )
    )
    def test_unequal_masses_equal_pairwise_oracle(self, counts):
        hists = np.asarray(counts, dtype=float)
        expected = [emd_oracle.emd_1d(hists[0], h) for h in hists[1:]]
        assert emd_rows(hists[0], hists[1:]).tolist() == expected

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            emd_rows(np.ones(4), np.ones((2, 5)))
        with pytest.raises(ConfigurationError):
            emd_rows(np.ones(4), np.ones(4))

    def test_empty_candidate_rejected(self):
        with pytest.raises(ConfigurationError):
            emd_rows(np.ones(3), np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))


class TestEMDHashKernel:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        normalise=st.booleans(),
        n_bins=st.integers(2, 30),
        rows=st.integers(1, 6),
        samples=st.integers(1, 130),
        scale=st.floats(1e-3, 1e3),
        level=st.floats(-1e3, 1e3),
    )
    def test_rows_equal_scalar_oracle(
        self, seed, normalise, n_bins, rows, samples, scale, level
    ):
        hasher = EMDHash(n_bins=n_bins, normalise=normalise, seed=seed % 1000)
        rng = np.random.default_rng(seed)
        batch = level + scale * rng.standard_normal((rows, samples))
        batch[0] = level  # a constant row at an arbitrary level
        expected = [emd_oracle.hash_window(hasher, row) for row in batch]
        assert [tuple(r) for r in hasher.hash_windows(batch).tolist()] == expected
        assert [hasher.hash_window(row) for row in batch] == expected
