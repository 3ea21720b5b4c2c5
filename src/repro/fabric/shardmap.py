"""Deterministic consistent-hash routing of tenants onto fleets.

One fabric runs many patient fleets; every tenant must land on exactly
one of them, the assignment must be a pure function of ``(seed, tenant,
fleet set)`` — no ``PYTHONHASHSEED`` dependence, no insertion-order
dependence — and a fleet set that gains or loses one fleet must route as
few tenants differently as possible (a moved tenant would lose its
fleet's signature-cache locality and retained results).  The classic
answer is a consistent-hash ring with virtual nodes:

* each fleet contributes :data:`VNODES` points on a 64-bit ring, hashed
  from ``(seed, fleet_id, replica)`` with BLAKE2b (process-stable,
  unlike Python's ``hash``);
* a tenant hashes to one point and is owned by the first fleet point
  clockwise from it;
* dropping a fleet deletes only that fleet's points, so only tenants
  that mapped to those arcs move — expected movement is ``1 / n_fleets``
  of the keyspace, not a full reshuffle.

Everything here is pure bookkeeping over strings and ints; the fabric
layer owns the actual :class:`~repro.core.system.ScaloSystem` instances.
"""

from __future__ import annotations

import bisect
import hashlib
from dataclasses import dataclass, field

from repro.errors import ConfigurationError

#: Virtual nodes (ring points) per fleet.
VNODES = 64


def _ring_hash(seed: int, *parts: object) -> int:
    """A 64-bit ring point from seed-salted BLAKE2b (process-stable)."""
    key = ":".join(str(p) for p in (seed, *parts)).encode()
    return int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "big")


@dataclass
class ShardMap:
    """The tenant → fleet routing table for one fabric.

    ``fleet_ids`` fixes the ring.  :meth:`owner` is total (every tenant
    string maps to some fleet) and deterministic for a given ``(seed,
    fleet set)``.
    """

    fleet_ids: tuple[int, ...] = (0,)
    seed: int = 0
    _points: list[int] = field(init=False, repr=False)
    _owners: list[int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.fleet_ids:
            raise ConfigurationError("shard map needs at least one fleet")
        ring = sorted(
            (_ring_hash(self.seed, "fleet", fleet_id, replica), fleet_id)
            for fleet_id in self.fleet_ids
            for replica in range(VNODES)
        )
        self._points = [point for point, _ in ring]
        self._owners = [fleet_id for _, fleet_id in ring]

    def owner(self, tenant: str) -> int:
        """The fleet owning ``tenant``: first ring point clockwise."""
        point = _ring_hash(self.seed, "tenant", tenant)
        index = bisect.bisect_right(self._points, point)
        if index == len(self._points):
            index = 0  # wrap: past the last point, the ring restarts
        return self._owners[index]
