"""The EMD locality-sensitive hash (the EMDH PE).

Following Gorisse et al., the EMD LSH computes the dot product of the
entire signal (here: its amplitude histogram, matching the exact EMD
comparator) with a random vector and then applies a linear function of the
dot product's square root, quantised into buckets.  The dot-product step
is shared with the DTW hash's HCONV PE, which is why SCALO needs only one
extra small PE (EMDH) for the square root.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.hashing.sketch import random_projection_vector
from repro.similarity.emd import signal_to_histogram, zscore_rows


@dataclass
class EMDHash:
    """LSH for Earth Mover's Distance over amplitude histograms.

    Args:
        n_bins: histogram bins (must match the exact comparator's).
        bucket_width: quantisation width of the final linear function —
            larger widths are more tolerant (more collisions).
        n_components: how many independent hash components to emit.
        seed: base seed for the shared projection vectors and offsets.
        value_range: fixed amplitude range for histogramming; signals are
            histogram-compatible across nodes only with a shared range.
    """

    n_bins: int = 20
    bucket_width: float = 0.04
    n_components: int = 4
    seed: int = 7
    value_range: tuple[float, float] = (-4.0, 4.0)
    #: z-score windows before histogramming so the hash (like the
    #: amplitude-normalised EMD comparator) is gain/offset invariant —
    #: propagation attenuates signals without changing their shape
    normalise: bool = True
    _projections: list[np.ndarray] = field(init=False, repr=False)
    _offsets: list[float] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.n_bins < 2:
            raise ConfigurationError("need at least two histogram bins")
        if self.bucket_width <= 0:
            raise ConfigurationError("bucket width must be positive")
        if self.n_components < 1:
            raise ConfigurationError("need at least one hash component")
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 0xE0D]))
        self._projections = [
            np.abs(random_projection_vector(self.n_bins, self.seed, salt))
            for salt in range(self.n_components)
        ]
        self._offsets = [float(rng.uniform(0, self.bucket_width))
                         for _ in range(self.n_components)]

    def hash_windows(self, windows: np.ndarray) -> np.ndarray:
        """Hash ``(n_windows, samples)`` rows into ``n_components`` buckets each.

        :meth:`hash_histograms` of :meth:`histograms`.  Row ``i`` depends
        only on ``windows[i]``; the scalar arithmetic in
        ``tests/emd_oracle.py`` is the reference it is tested against.
        """
        return self.hash_histograms(self.histograms(windows))

    def histograms(self, windows: np.ndarray) -> np.ndarray:
        """The ``(n_windows, n_bins)`` amplitude counts the hash projects.

        Rows are z-scored first when :attr:`normalise` is set, and binned
        over the shared :attr:`value_range`, as one whole-batch pass.
        """
        batch = np.asarray(windows, dtype=float)
        if batch.ndim != 2:
            raise ConfigurationError("expected (n_windows, samples)")
        if self.normalise:
            batch = zscore_rows(batch)
        return signal_to_histogram(batch, self.n_bins, self.value_range)

    def hash_histograms(self, histograms: np.ndarray) -> np.ndarray:
        """Hash rows of :meth:`histograms` output, leaving them unchanged.

        Each row is scaled to unit mass (an empty row stays zero), then
        projection, square root and quantisation each run as one
        whole-batch array pass.
        """
        totals = histograms.sum(axis=1)
        masses = histograms / np.where(totals > 0, totals, 1.0)[:, None]
        out = np.empty((masses.shape[0], self.n_components), dtype=np.int64)
        for c, (projection, offset) in enumerate(
            zip(self._projections, self._offsets)
        ):
            dots = masses @ projection
            values = np.sqrt(np.maximum(dots, 0.0))
            out[:, c] = np.floor(
                (values + offset) / self.bucket_width
            ).astype(np.int64)
        return out
