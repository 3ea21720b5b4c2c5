"""Linear-algebra PE cluster: MAD with its post-ops, Gauss-Jordan INV,
work splitting and register-file limits."""

from repro.linalg.inverse import gauss_jordan_inverse
from repro.linalg.mad import (
    ELEMENT_BYTES,
    PE_REGISTER_BYTES,
    PostOp,
    mad,
)
from repro.linalg.tiling import needs_nvm, split_even

__all__ = [
    "gauss_jordan_inverse",
    "ELEMENT_BYTES",
    "PE_REGISTER_BYTES",
    "PostOp",
    "mad",
    "needs_nvm",
    "split_even",
]
