"""Reference CCHECK: the per-record binary-search loop of the PE.

:func:`check` is the loop :meth:`repro.hashing.collision.CollisionChecker.check`
must reproduce pair for pair, in the same order.  It sorts the received
signatures per component, then binary-searches every component of every
local record and counts agreements per received index in a dict, so pairs
come in ``local`` order and, within a record, in the dict's insertion
order.  Slow by design; used only by the tests.
"""

from __future__ import annotations

import bisect

from repro.errors import ConfigurationError
from repro.hashing.collision import HashRecord


def check(
    received: list[tuple[int, ...]],
    local: list[HashRecord],
    min_matching: int = 1,
) -> list[tuple[int, HashRecord]]:
    """All (received-index, local-record) pairs agreeing on at least
    ``min_matching`` components."""
    if not received or not local:
        return []
    n_components = len(received[0])
    if any(len(sig) != n_components for sig in received):
        raise ConfigurationError("received signatures have mixed widths")

    # Sort received signatures per component (the in-SRAM sort).
    sorted_components = [
        sorted((sig[c], i) for i, sig in enumerate(received))
        for c in range(n_components)
    ]

    matches: list[tuple[int, HashRecord]] = []
    for record in local:
        if len(record.signature) != n_components:
            raise ConfigurationError("local signature width mismatch")
        agree_counts: dict[int, int] = {}
        for c in range(n_components):
            component = sorted_components[c]
            value = record.signature[c]
            keys = [entry[0] for entry in component]
            lo = bisect.bisect_left(keys, value)
            while lo < len(component) and component[lo][0] == value:
                idx = component[lo][1]
                agree_counts[idx] = agree_counts.get(idx, 0) + 1
                lo += 1
        for idx, agreeing in agree_counts.items():
            if agreeing >= min_matching:
                matches.append((idx, record))
    return matches
