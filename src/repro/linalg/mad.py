"""The LIN ALG cluster's MAD PE, the kernel of the NN decoder.

MAD computes ``A @ X + C`` (multiply-add with a constant matrix) and can
be configured as multiply-only.  The paper adds two configurable post-ops
to MAD and ADD for neural networks: ReLU (suppress negative outputs) and
normalisation (subtract a mean and divide by a standard deviation read as
parameters) (paper §3.2).  ADD, SUB and the block multiplier are modelled
by their Table 1 catalog entries only.

Each PE owns 16 KB of single-cycle registers for inputs/constants; larger
operands stream from the NVM (:func:`repro.linalg.tiling.needs_nvm`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError

#: Per-PE operand register capacity (bytes).
PE_REGISTER_BYTES = 16 * 1024

#: Bytes per 16-bit matrix element.
ELEMENT_BYTES = 2


@dataclass
class PostOp:
    """Configurable output stage shared by MAD and ADD."""

    relu: bool = False
    normalise: bool = False
    mean: np.ndarray | float = 0.0
    std: np.ndarray | float = 1.0

    def apply(self, values: np.ndarray) -> np.ndarray:
        out = np.asarray(values, dtype=float)
        if self.normalise:
            std = np.asarray(self.std, dtype=float)
            if np.any(std <= 0):
                raise ConfigurationError("normalisation std must be positive")
            out = (out - np.asarray(self.mean, dtype=float)) / std
        if self.relu:
            out = np.maximum(out, 0.0)
        return out


def mad(
    a: np.ndarray,
    x: np.ndarray,
    c: np.ndarray | float = 0.0,
    post: PostOp | None = None,
) -> np.ndarray:
    """MAD PE: ``A @ X + C`` with the optional ReLU/normalise post-op.

    Configure multiply-only (MUL) by leaving ``c`` at 0.
    """
    a = np.asarray(a, dtype=float)
    x = np.asarray(x, dtype=float)
    if a.ndim != 2:
        raise ConfigurationError("MAD expects a 2-D A operand")
    if x.ndim not in (1, 2):
        raise ConfigurationError("MAD expects a 1-D or 2-D X operand")
    if a.shape[1] != x.shape[0]:
        raise ConfigurationError(
            f"shape mismatch: A is {a.shape}, X is {x.shape}"
        )
    result = a @ x + np.asarray(c, dtype=float)
    if post is not None:
        result = post.apply(result)
    return result
