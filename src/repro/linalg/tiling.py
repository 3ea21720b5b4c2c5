"""Work splitting of the LIN ALG cluster.

:func:`split_even` cuts a dimension into contiguous spans, the way the
decomposed SVM and NN decoders share features across implants (paper §3.2).
"""

from __future__ import annotations

from repro.errors import ConfigurationError


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
