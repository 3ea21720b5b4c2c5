"""Work splitting and register-file limits of the LIN ALG cluster.

:func:`split_even` cuts a dimension into contiguous spans, the way the
decomposed SVM and NN decoders share features across implants; :func:`needs_nvm`
tells when a matrix outgrows the 16 KB PE registers and must stream from
the NVM, as the Kalman filter's inversion does (paper §3.2, §4).
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.linalg.mad import ELEMENT_BYTES, PE_REGISTER_BYTES


def split_even(n: int, parts: int) -> list[tuple[int, int]]:
    """Split range(n) into ``parts`` contiguous (start, stop) spans."""
    if n < 1 or parts < 1:
        raise ConfigurationError("need positive sizes")
    base = n // parts
    extra = n % parts
    spans = []
    start = 0
    for i in range(parts):
        size = base + (1 if i < extra else 0)
        spans.append((start, start + size))
        start += size
    return [s for s in spans if s[0] < s[1]]


def needs_nvm(n_rows: int, n_cols: int) -> bool:
    """True when a 16-bit matrix exceeds the PE register capacity."""
    return n_rows * n_cols * ELEMENT_BYTES > PE_REGISTER_BYTES
