"""Reference sign sketch and weighted min-hash: the one-window scalar forms.

:func:`sign_sketch` is the definition
:func:`repro.hashing.sketch.sign_sketch_batch` must reproduce row for
row, and the one-pass sampler is the definition
:func:`repro.hashing.minhash.minhash_signature_batch` must reproduce bit
for bit.  The sampler walks one window's n-gram profile as a
``{value: count}`` dict in ascending value order, draws one
``_uniform01`` per n-gram per seed, and keeps the first strictly greatest
``u ** (1 / count)`` score.  Slow by design; used only by the tests.

Each score is a one-element ``np.power`` in the operand layout of the
kernel's :func:`~repro.hashing.minhash._power`, not Python's float
``**``: libm ``pow`` and numpy's ``power`` differ in the last bit for a
few percent of ``(u, 1 / w)`` pairs, and two scores one ulp apart would
let the oracle and the kernel pick different arg-maxes.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.hashing.lsh import LSHFamily
from repro.hashing.minhash import _uniform01, finalize_hash
from tests import emd_oracle


def sign_sketch(
    window: np.ndarray,
    projection: np.ndarray,
    stride: int = 1,
    normalise: bool = False,
) -> np.ndarray:
    """One window's differenced sign sketch (the HCONV bit string).

    The sign of the first difference of consecutive sliding dot products
    with ``projection``, hopping ``stride`` samples; ``normalise``
    z-scores the window first.
    """
    x = np.asarray(window, dtype=float)
    r = np.asarray(projection, dtype=float)
    if x.ndim != 1 or r.ndim != 1:
        raise ConfigurationError("window and projection must be 1-D")
    if r.shape[0] > x.shape[0]:
        raise ConfigurationError(
            f"projection ({r.shape[0]}) longer than window ({x.shape[0]})"
        )
    if stride < 1:
        raise ConfigurationError("stride must be >= 1")
    if normalise:
        std = x.std()
        x = (x - x.mean()) / std if std > 0 else x - x.mean()
    positions = np.lib.stride_tricks.sliding_window_view(x, r.shape[0])[::stride]
    return (np.diff(positions @ r) > 0).astype(np.uint8)


def sketch_length(window_len: int, w: int, stride: int = 1) -> int:
    """Number of sketch bits produced for the given geometry."""
    return (window_len - w) // stride if window_len >= w else 0



def shingle_values(bits: np.ndarray, n: int) -> np.ndarray:
    """The n-bit shingles of a 0/1 bit array, in stream order.

    Each shingle is packed into an int64 (MSB first) by a dot product
    with the powers of two.
    """
    bits = np.asarray(bits)
    if bits.ndim != 1:
        raise ConfigurationError("expected a 1-D bit array")
    if n < 1:
        raise ConfigurationError("n-gram size must be >= 1")
    if np.any((bits != 0) & (bits != 1)):
        raise ConfigurationError("sketch must contain only 0/1 bits")
    if bits.shape[0] < n:
        return np.empty(0, dtype=np.int64)
    weights = 1 << np.arange(n - 1, -1, -1)
    shingles = np.lib.stride_tricks.sliding_window_view(bits.astype(np.int64), n)
    return shingles @ weights


def ngram_counts(bits: np.ndarray, n: int) -> dict[int, int]:
    """Histogram of the n-bit shingles of a 0/1 bit array.

    Each shingle is packed into an integer key (MSB first).

    Returns:
        Mapping shingle-value -> occurrence count, in ascending key order.
    """
    uniques, counts = np.unique(shingle_values(bits, n), return_counts=True)
    return {int(v): int(c) for v, c in zip(uniques, counts)}


def profile_similarity(counts_a: dict[int, int], counts_b: dict[int, int]) -> float:
    """Weighted Jaccard similarity of two n-gram profiles.

    This is the quantity the weighted min-hash collision probability
    estimates.
    """
    keys = set(counts_a) | set(counts_b)
    if not keys:
        return 1.0
    min_sum = 0
    max_sum = 0
    for key in keys:
        a = counts_a.get(key, 0)
        b = counts_b.get(key, 0)
        min_sum += min(a, b)
        max_sum += max(a, b)
    if max_sum == 0:
        return 1.0
    return min_sum / max_sum


def weighted_score(u: float, weight: int) -> float:
    """``u ** (1 / weight)`` as :func:`~repro.hashing.minhash._power`
    computes it: a ``(1, 1)`` base against a ``(1, 1)`` exponent column."""
    exponent = 1.0 / np.array([weight], dtype=np.float64)
    return float(np.power(np.array([[u]]), exponent[:, None])[0, 0])


def weighted_minhash_sample(counts: dict[int, int], seed: int) -> int:
    """Select one n-gram from a weighted profile, min-wise consistently.

    Returns:
        The selected n-gram's packed integer value.

    Raises:
        ConfigurationError: for an empty profile.
    """
    if not counts:
        raise ConfigurationError("cannot min-hash an empty n-gram profile")
    best_key = -1
    best_score = -1.0
    for key, weight in counts.items():
        if weight <= 0:
            continue
        score = weighted_score(_uniform01(key, seed), weight)
        if score > best_score:
            best_score = score
            best_key = key
    if best_key < 0:
        raise ConfigurationError("profile has no positive weights")
    return best_key


def minhash_signature(
    counts: dict[int, int], seeds: list[int], bits: int
) -> tuple[int, ...]:
    """One hash component per seed — the OR-construction signature."""
    return tuple(
        finalize_hash(weighted_minhash_sample(counts, seed), seed, bits)
        for seed in seeds
    )


def oracle_hash_window(family: LSHFamily, window: np.ndarray) -> tuple[int, ...]:
    """What ``family.hash_window(window)`` must return, computed the slow way.

    Sketch with the scalar :func:`sign_sketch`, count n-grams into a
    dict, and run the scalar sampler once per seed.  EMD families have no
    min-hash stage and take the scalar EMDH arithmetic in
    ``tests/emd_oracle.py``.
    """
    window = np.asarray(window, dtype=float)
    config = family.config
    if config.measure == "emd":
        return emd_oracle.hash_window(family._emd, window)
    bits = sign_sketch(window, family._projection, normalise=config.normalise)
    counts = ngram_counts(bits, config.ngram)
    if not counts:
        # degenerate window shorter than the sketch geometry
        return (0,) * config.n_components
    return minhash_signature(counts, family._seeds, config.bits)
