"""N-gram (shingle) profiles of bit sketches (the NGRAM PE, part 1).

The sketch bit string is shingled into overlapping n-grams; the histogram
of n-gram occurrences is the weighted set that the min-hash step samples
from.  N-grams tolerate the local insertions/deletions that time warping
introduces, which is why the scheme hashes consistently under DTW.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError

#: shingle values are codes of at most this many bits, held as uint16
MAX_SHINGLE_BITS = 16


def ngram_value_matrix(bits: np.ndarray, n: int) -> np.ndarray:
    """Packed shingle values for a whole batch of sketches at once.

    ``bits`` is ``(n_windows, sketch_bits)``; the result is
    ``(n_windows, sketch_bits - n + 1)`` of uint16 shingle values, each
    n-bit shingle packed MSB first (``n`` is at most
    :data:`MAX_SHINGLE_BITS`); a value's occurrence count in its row is
    its weight in the row's n-gram profile (counted downstream, see
    :func:`repro.hashing.minhash.minhash_signature_batch`).
    """
    bits = np.asarray(bits)
    if bits.ndim != 2:
        raise ConfigurationError("expected a (n_windows, bits) array")
    if not 1 <= n <= MAX_SHINGLE_BITS:
        raise ConfigurationError(
            f"n-gram size must be between 1 and {MAX_SHINGLE_BITS}"
        )
    if ((bits != 0) & (bits != 1)).any():
        raise ConfigurationError("sketch must contain only 0/1 bits")
    length = bits.shape[1] - n + 1
    if length < 1:
        return np.empty((bits.shape[0], 0), dtype=np.uint16)
    bits = bits.astype(np.uint16)
    values = bits[:, :length].copy()
    for k in range(1, n):
        values <<= 1
        values |= bits[:, k : k + length]
    return values
