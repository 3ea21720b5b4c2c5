"""Hash collision checking (the CCHECK PE) and the recent-hash store.

When hashes arrive from a remote node, CCHECK sorts them in its SRAM
registers and checks them against the local hashes of a configurable past
horizon (e.g. the last 100 ms) with binary search (paper §3.2).  The
simulator gets the same pairs from one component-wise array comparison;
the per-record binary-search loop lives in ``tests/ccheck_oracle.py`` as
the reference.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from itertools import count, repeat
from typing import NamedTuple

import numpy as np

from repro.errors import ConfigurationError


class HashRecord(NamedTuple):
    """One stored hash: which electrode produced it and when."""

    time_ms: float
    electrode: int
    signature: tuple[int, ...]


@dataclass
class RecentHashStore:
    """A bounded time-ordered store of local hashes (SRAM + NVM backed).

    Records are kept in insertion (time) order; lookups retrieve the window
    ``[now - horizon, now]``, which is exactly the access pattern CCHECK
    performs against the on-chip storage.
    """

    horizon_ms: float = 100.0
    _records: list[HashRecord] = field(default_factory=list)

    def add_batch(
        self, time_ms: float, signatures: list[tuple[int, ...]]
    ) -> None:
        """Store one hash per electrode (in index order) for a single
        window time, which must not precede the last stored record's."""
        if not signatures:
            return
        if self._records and time_ms < self._records[-1].time_ms:
            raise ConfigurationError("hash records must be appended in time order")
        self._records.extend(map(HashRecord, repeat(time_ms), count(), signatures))

    def recent(self, now_ms: float) -> list[HashRecord]:
        """Records within the horizon ending at ``now_ms``."""
        cutoff = now_ms - self.horizon_ms
        times = [r.time_ms for r in self._records]
        lo = bisect.bisect_left(times, cutoff)
        hi = bisect.bisect_right(times, now_ms)
        return self._records[lo:hi]

    def evict_before(self, cutoff_ms: float) -> int:
        """Drop records older than ``cutoff_ms``; returns the count dropped."""
        times = [r.time_ms for r in self._records]
        lo = bisect.bisect_left(times, cutoff_ms)
        dropped = lo
        self._records = self._records[lo:]
        return dropped

    def __len__(self) -> int:
        return len(self._records)


class CollisionChecker:
    """The CCHECK PE: match received hashes against local recent hashes.

    The OR-construction of multi-component signatures is honoured by
    comparing each component separately.
    """

    def __init__(self, min_matching: int = 1):
        if min_matching < 1:
            raise ConfigurationError("min_matching must be >= 1")
        self.min_matching = min_matching

    def check(
        self,
        received: list[tuple[int, ...]],
        local: list[HashRecord],
    ) -> list[tuple[int, HashRecord]]:
        """All (received-index, local-record) pairs that collide.

        A pair collides when at least ``min_matching`` signature components
        are equal component-wise.  Pairs come in ``local`` order; within
        one record, by the first component that agrees, then by index
        (the order the PE's per-component binary searches find them).
        """
        if not received or not local:
            return []
        n_components = len(received[0])
        if any(len(sig) != n_components for sig in received):
            raise ConfigurationError("received signatures have mixed widths")
        if any(len(record.signature) != n_components for record in local):
            raise ConfigurationError("local signature width mismatch")

        eq = (
            np.array([record.signature for record in local])[:, None, :]
            == np.array(received)[None, :, :]
        )
        rec, idx = np.nonzero(eq.sum(axis=-1) >= self.min_matching)
        if rec.size == 0:
            return []
        first = eq[rec, idx].argmax(axis=-1)
        order = np.lexsort((idx, first, rec))
        return [(int(idx[k]), local[rec[k]]) for k in order]
