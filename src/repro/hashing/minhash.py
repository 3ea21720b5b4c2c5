"""Deterministic weighted min-hash (the NGRAM PE, part 2).

The original SSH scheme uses randomised weighted min-hash whose rejection
sampling has variable latency.  SCALO replaces it with a constant-time
alternative (the paper cites consistent hashing): for each n-gram ``g``
with weight ``w_g``, draw a deterministic pseudo-uniform ``u_g = h(g,
seed)`` in (0, 1) and score it ``u_g ** (1 / w_g)``; the arg-max n-gram is
the sample.  This is the classic one-pass weighted min-wise sampler: the
probability that two profiles select the same n-gram equals their weighted
Jaccard similarity, and the compute per n-gram is constant.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

from repro.errors import ConfigurationError


def _uniform01(value: int, seed: int) -> float:
    """Deterministic hash of ``(value, seed)`` to a float in (0, 1)."""
    digest = hashlib.blake2b(
        struct.pack("<qq", value, seed), digest_size=8
    ).digest()
    as_int = int.from_bytes(digest, "little")
    # avoid exactly 0 so the 1/w power is well defined
    return (as_int + 1) / (2**64 + 2)


def finalize_hash(sample: int, seed: int, bits: int) -> int:
    """Map a min-hash sample to a ``bits``-wide hash value.

    The paper's hashes are 8 bits per window (1-2 bytes total across
    components); this is the final quantisation step.
    """
    if not 1 <= bits <= 32:
        raise ConfigurationError("hash width must be 1..32 bits")
    digest = hashlib.blake2b(
        struct.pack("<qq", sample, ~seed & 0xFFFFFFFF), digest_size=4
    ).digest()
    return int.from_bytes(digest, "little") & ((1 << bits) - 1)


class _SeedTable:
    """Per-``(seeds, bits)`` rows of :func:`_uniform01` and
    :func:`finalize_hash`, one row per shingle value seen so far.

    Both functions depend only on ``(value, seed)``, so a row computed
    once is exact forever; the table only grows, and only with values a
    batch contains that it has not tabulated yet.  Rows are kept in
    ascending value order so looking a batch up is one ``searchsorted``.
    """

    def __init__(self, seeds: tuple[int, ...], bits: int):
        self.seeds = seeds
        self.bits = bits
        self.values = np.empty(0, dtype=np.int64)
        #: ``uniforms[r, s]`` is ``_uniform01(values[r], seeds[s])``
        self.uniforms = np.empty((0, len(seeds)), dtype=np.float64)
        #: ``finals[r, s]`` is ``finalize_hash(values[r], seeds[s], bits)``
        self.finals = np.empty((0, len(seeds)), dtype=np.int64)

    def rows(self, values: np.ndarray) -> np.ndarray:
        """The table row of each of ``values``, tabulating unseen ones."""
        pos = np.searchsorted(self.values, values)
        if self.values.shape[0] == 0 or not np.array_equal(
            self.values.take(pos, mode="clip"), values
        ):
            self._grow(np.setdiff1d(values, self.values))
            pos = np.searchsorted(self.values, values)
        return pos

    def _grow(self, new: np.ndarray) -> None:
        new_values = new.tolist()
        uniforms = np.array(
            [[_uniform01(v, seed) for seed in self.seeds] for v in new_values],
            dtype=np.float64,
        ).reshape(-1, len(self.seeds))
        finals = np.array(
            [
                [finalize_hash(v, seed, self.bits) for seed in self.seeds]
                for v in new_values
            ],
            dtype=np.int64,
        ).reshape(-1, len(self.seeds))
        values = np.concatenate([self.values, new])
        order = np.argsort(values)
        self.values = values[order]
        self.uniforms = np.concatenate([self.uniforms, uniforms])[order]
        self.finals = np.concatenate([self.finals, finals])[order]


#: one table per ``(seeds, bits)``, shared by every family with those seeds
_TABLES: dict[tuple[tuple[int, ...], int], _SeedTable] = {}


def _seed_table(seeds: list[int], bits: int) -> _SeedTable:
    key = (tuple(seeds), bits)
    table = _TABLES.get(key)
    if table is None:
        table = _TABLES[key] = _SeedTable(key[0], bits)
    return table


def minhash_signature_batch(
    values: np.ndarray, seeds: list[int], bits: int
) -> np.ndarray:
    """Weighted min-hash signatures of many shingle multisets at once.

    Args:
        values: ``(n_windows, n_shingles)`` packed shingle values, one
            row per window (see
            :func:`~repro.hashing.ngram.ngram_value_matrix`); a value's
            weight in a row is its number of occurrences there.
        seeds: one seed per signature component.
        bits: width of each component.

    Returns:
        ``(n_windows, len(seeds))`` int64 signature components.

    Each row is sorted, so a value's occurrences form one run whose
    length is its weight, and runs ascend by value.  Only the first
    element of each run — one per ``(row, value)`` pair present — is
    looked up in the shared per-``(seeds, bits)`` table and scored
    ``u ** (1 / weight)``; the rest score -1.  ``argmax`` along the row
    then picks the first maximum in ascending value order, which is the
    one-pass sampler's tie-break (it walks values in ascending order and
    replaces only on a strictly greater score).
    """
    values = np.asarray(values)
    if values.ndim != 2:
        raise ConfigurationError("expected (n_windows, n_shingles) values")
    n_rows, n_shingles = values.shape
    if n_shingles == 0:
        raise ConfigurationError("cannot min-hash an empty n-gram profile")
    table = _seed_table(seeds, bits)
    ordered = np.sort(values, axis=1).ravel()
    size = ordered.shape[0]
    # run boundaries, plus one past the end so every run has a successor
    bound = np.empty(size + 1, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=bound[1:size])
    bound[:size:n_shingles] = True
    bound[size] = True
    edges = np.flatnonzero(bound)
    starts = edges[:-1]
    weights = edges[1:] - starts
    rows = table.rows(ordered[starts])
    scores = np.full((size, len(seeds)), -1.0)
    scores[starts] = table.uniforms[rows] ** (1.0 / weights)[:, None]
    winners = scores.reshape(n_rows, n_shingles, len(seeds)).argmax(axis=1)
    row_at = np.empty(size, dtype=np.intp)
    row_at[starts] = rows
    picked = row_at[winners + (np.arange(n_rows) * n_shingles)[:, None]]
    return table.finals[picked, np.arange(len(seeds))]
