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
from repro.hashing.ngram import MAX_SHINGLE_BITS


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


#: a seed table holds ``u ** (1 / w)`` for weights up to this; a heavier
#: run (under 0.01 % of the runs of random-walk windows' 8-grams) is
#: scored on the spot, which keeps a 16-bit table's scores under 51 MB
TABULATED_WEIGHTS = 8


class _SeedTable:
    """Per-``(seeds, bits)`` rows of :func:`_uniform01`, its scores
    ``u ** (1 / w)`` and :func:`finalize_hash`, one row per shingle value
    seen so far.

    Every entry depends only on ``(value, seed)`` and the weight, so a row
    computed once is exact forever; the table only grows, and only with
    values a batch contains that it has not tabulated yet.  ``index``
    maps a value straight to its row.  The scores and finals are laid out
    seed-major, the layout the kernel gathers them in.
    """

    def __init__(self, seeds: tuple[int, ...], bits: int):
        self.seeds = seeds
        self.bits = bits
        #: ``index[v]`` is value ``v``'s row, or -1 before it is tabulated
        self.index = np.full(0, -1, dtype=np.intp)
        #: ``uniforms[r, s]`` is ``_uniform01(v, seeds[s])`` for row ``r``'s ``v``
        self.uniforms = np.empty((0, len(seeds)), dtype=np.float64)
        #: ``powered[s, 1 + r * TABULATED_WEIGHTS + w - 1]`` is
        #: ``uniforms[r, s] ** (1 / w)``; column 0 is the -1 that scores
        #: every position of a run but its first
        self.powered = np.full((len(seeds), 1), -1.0)
        #: ``finals[s, r]`` is ``finalize_hash(v, seeds[s], bits)``
        self.finals = np.empty((len(seeds), 0), dtype=np.int64)

    def rows(self, values: np.ndarray) -> np.ndarray:
        """The table row of each of ``values``, tabulating unseen ones."""
        top = int(values.max(initial=-1))
        if top >= self.index.shape[0]:
            grown = np.full(1 << top.bit_length(), -1, dtype=np.intp)
            grown[: self.index.shape[0]] = self.index
            self.index = grown
        rows = self.index[values]
        missing = rows < 0
        if missing.any():
            self._grow(np.unique(values[missing]))
            rows = self.index[values]
        return rows

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
        powered = np.stack(
            [
                _power(uniforms, np.full(len(new_values), weight))
                for weight in range(1, TABULATED_WEIGHTS + 1)
            ],
            axis=1,
        ).reshape(-1, len(self.seeds))
        self.index[new] = np.arange(len(new_values)) + self.uniforms.shape[0]
        self.uniforms = np.concatenate([self.uniforms, uniforms])
        self.powered = np.concatenate([self.powered, powered.T], axis=1)
        self.finals = np.concatenate([self.finals, finals.T], axis=1)


def _power(uniforms: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``uniforms ** (1 / weights)``, one weight per row.

    The exponent column is broadcast along the seeds: the operand layout
    the kernel has always scored with, so a tabulated score is the same
    numpy ``pow`` result, bit for bit, as one computed on the spot.
    """
    return uniforms ** (1.0 / weights)[:, None]


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
            weight in a row is its number of occurrences there.  Other
            integer dtypes than uint16 must hold
            :data:`~repro.hashing.ngram.MAX_SHINGLE_BITS`-bit codes.
        seeds: one seed per signature component.
        bits: width of each component.

    Returns:
        ``(n_windows, len(seeds))`` int64 signature components.

    Each row is sorted as 2-byte codes, so a value's occurrences form
    one run whose length is its weight, and runs ascend by value; only
    the run starts are widened to seed-table indices.  Only the first
    element of each run — one per ``(row, value)`` pair present — scores
    ``u ** (1 / weight)``, gathered from the shared per-``(seeds, bits)``
    table that indexes values directly; the rest score -1.  ``argmax``
    along the row then picks the first maximum in ascending value order,
    which is the one-pass sampler's tie-break (it walks values in
    ascending order and replaces only on a strictly greater score).
    """
    values = np.asarray(values)
    if values.ndim != 2:
        raise ConfigurationError("expected (n_windows, n_shingles) values")
    n_rows, n_shingles = values.shape
    if n_shingles == 0:
        raise ConfigurationError("cannot min-hash an empty n-gram profile")
    if values.dtype != np.uint16:
        if n_rows and (
            values.min() < 0 or values.max() >= 1 << MAX_SHINGLE_BITS
        ):
            raise ConfigurationError(
                f"shingle values must be {MAX_SHINGLE_BITS}-bit codes"
            )
        values = values.astype(np.uint16)
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
    rows = table.rows(ordered[starts].astype(np.intp))
    # each position's column of ``table.powered``: its run's score at the
    # run's first position, column 0 (-1) everywhere else
    columns = np.zeros(size, dtype=np.intp)
    columns[starts] = rows * TABULATED_WEIGHTS + np.minimum(
        weights, TABULATED_WEIGHTS
    )
    scores = table.powered.take(columns, axis=1)
    heavy = weights > TABULATED_WEIGHTS
    if heavy.any():
        scores[:, starts[heavy]] = _power(
            table.uniforms[rows[heavy]], weights[heavy]
        ).T
    winners = scores.reshape(len(seeds), n_rows, n_shingles).argmax(axis=2)
    winners += np.arange(0, size, n_shingles)
    picked = table.index[ordered[winners]]
    return np.take_along_axis(table.finals, picked, axis=1).T.copy()
