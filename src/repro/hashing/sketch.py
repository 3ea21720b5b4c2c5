"""Sign sketches of signal windows (the HCONV PE).

Following the SSH scheme (Luo & Shrivastava) the paper bases its DTW /
Euclidean / XCOR hashes on: slide a length-``w`` window across the signal
with stride ``delta``, dot each position with a fixed random vector, and
keep only the sign — producing a bit string ("sketch") whose local
structure is robust to time warping.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError


def random_projection_vector(
    length: int, seed: int, rng_salt: int = 0
) -> np.ndarray:
    """The fixed +-1/Gaussian projection vector shared by all nodes.

    Every implant must use the *same* vector so hashes are comparable
    across nodes; the vector is derived deterministically from the seed.
    """
    if length < 1:
        raise ConfigurationError("projection length must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence([seed, rng_salt]))
    return rng.standard_normal(length)


def sign_sketch_batch(
    windows: np.ndarray,
    projection: np.ndarray,
    stride: int = 1,
    normalise: bool = False,
) -> np.ndarray:
    """Bit sketches of ``(n_windows, window_len)`` rows, one per row.

    Each bit is the sign of the *first difference* of consecutive sliding
    dot products with ``projection``, not the raw sign.  Neural signals
    have a strong 1/f component that makes overlapping dot products drift
    together; raw signs then degenerate into long runs and every window
    hashes alike.  Differencing whitens the sketch while preserving the
    warping-tolerant local structure.

    One strided view + one matmul covers the whole batch, evaluated as a
    single ``(n * positions, w)`` by ``(w,)`` product — the same
    rows-times-vector kernel as the one-window reference ``sign_sketch``
    in ``tests/minhash_oracle.py``, so each position's summation order,
    and hence row ``i`` of the result, matches it exactly.

    Args:
        windows: ``(n_windows, window_len)`` signal rows.
        projection: the shared random vector; its length is the sketch
            sub-window size ``w``.
        stride: hop between sliding positions (SSH's ``delta``).
        normalise: z-score each row first.  Pearson correlation is
            invariant to offset and scale, so the XCOR-configured hash
            normalises; the Euclidean/DTW hashes do not.

    Returns:
        uint8 array of shape ``(n_windows, positions - 1)``.
    """
    x = np.asarray(windows, dtype=float)
    r = np.asarray(projection, dtype=float)
    if x.ndim != 2 or r.ndim != 1:
        raise ConfigurationError("expected (n_windows, samples) and a 1-D "
                                 "projection")
    if r.shape[0] > x.shape[1]:
        raise ConfigurationError(
            f"projection ({r.shape[0]}) longer than window ({x.shape[1]})"
        )
    if stride < 1:
        raise ConfigurationError("stride must be >= 1")
    if normalise:
        mean = x.mean(axis=1)
        std = x.std(axis=1)
        x = x - mean[:, None]
        scaled = std > 0
        x[scaled] = x[scaled] / std[scaled, None]
    n, w = x.shape[0], r.shape[0]
    p = (x.shape[1] - w) // stride + 1
    positions = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, p, w),
        strides=(x.strides[0], stride * x.strides[1], x.strides[1]),
        writeable=False,
    )
    dots = (positions.reshape(n * p, w) @ r).reshape(n, p)
    # ``b > a`` is ``b - a > 0`` for IEEE doubles, without the temporary
    return (dots[:, 1:] > dots[:, :-1]).astype(np.uint8)
