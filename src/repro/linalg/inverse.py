"""Matrix inversion by Gauss-Jordan elimination (the INV PE).

The paper implements inversion in hardware with the Gauss-Jordan method
(citing Quintana et al.); the Kalman-filter movement decoder is its only
heavy client, and because inverted matrices are large, the INV PE streams
operands through the NVM (paper §4).  We implement the same algorithm
with partial pivoting so the reproduction is numerically safe.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError

#: Pivots smaller than this (in absolute value) make the matrix
#: effectively singular.
PIVOT_TOL = 1e-12


def gauss_jordan_inverse(matrix: np.ndarray) -> np.ndarray:
    """Invert a square matrix with Gauss-Jordan elimination.

    Args:
        matrix: square, non-singular.

    Raises:
        ConfigurationError: for non-square or singular inputs.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ConfigurationError(f"expected a square matrix, got {a.shape}")
    n = a.shape[0]
    augmented = np.hstack([a.copy(), np.eye(n)])

    for col in range(n):
        # partial pivoting: bring the largest remaining entry up
        pivot_row = col + int(np.argmax(np.abs(augmented[col:, col])))
        pivot = augmented[pivot_row, col]
        if abs(pivot) < PIVOT_TOL:
            raise ConfigurationError("matrix is singular to working precision")
        if pivot_row != col:
            augmented[[col, pivot_row]] = augmented[[pivot_row, col]]
        augmented[col] /= augmented[col, col]
        for row in range(n):
            if row != col and augmented[row, col] != 0.0:
                augmented[row] -= augmented[row, col] * augmented[col]
    return augmented[:, n:]
