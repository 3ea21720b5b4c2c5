"""NVM partitioning: signals, hashes, application data, MC (paper §3.3).

Partition sizes are configurable; when a partition fills, its oldest data
is overwritten (each partition is a byte-addressed ring).  This module
manages the address arithmetic and ring semantics on top of the raw
device; the storage controller uses it for placement.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import StorageError
from repro.storage.nvm import BLOCK_BYTES

#: Canonical partition names.
PARTITION_NAMES = ("signals", "hashes", "appdata", "mc")

#: Default split of the 128 GB device (fractions of capacity).
DEFAULT_FRACTIONS = {
    "signals": 0.75,
    "hashes": 0.10,
    "appdata": 0.10,
    "mc": 0.05,
}


@dataclass
class Partition:
    """One ring-buffer partition."""

    name: str
    start_byte: int
    size_bytes: int
    #: bytes written since creation (monotonic)
    write_head: int = field(init=False, default=0)

    def reserve(self, n_bytes: int, count: int) -> tuple[list[int], list[int]]:
        """Reserve ``count`` objects of ``n_bytes`` each, in order.

        Returns each object's device byte address and the write head
        just after it.  Wrap-around (overwriting the oldest data) is the
        paper's policy when a partition fills: an object that would
        straddle the ring's end skips the tail fragment and starts the
        next lap, so objects stay contiguous.  Within a lap the addresses
        are an arithmetic run.
        """
        if n_bytes <= 0:
            raise StorageError("append size must be positive")
        if n_bytes > self.size_bytes:
            raise StorageError(
                f"object of {n_bytes} B larger than partition {self.name}"
            )
        addresses: list[int] = []
        heads: list[int] = []
        head = self.write_head
        while len(addresses) < count:
            offset = head % self.size_bytes
            fit = (self.size_bytes - offset) // n_bytes
            if not fit:
                head += self.size_bytes - offset
                offset, fit = 0, self.size_bytes // n_bytes
            take = min(fit, count - len(addresses))
            first = self.start_byte + offset
            addresses += range(first, first + take * n_bytes, n_bytes)
            heads += range(head + n_bytes, head + (take + 1) * n_bytes, n_bytes)
            head += take * n_bytes
        self.write_head = head
        return addresses, heads


@dataclass
class PartitionTable:
    """The four-partition layout of one node's NVM, split by
    :data:`DEFAULT_FRACTIONS`."""

    capacity_bytes: int
    partitions: dict[str, Partition] = field(init=False)

    def __post_init__(self) -> None:
        if self.capacity_bytes < len(PARTITION_NAMES) * BLOCK_BYTES:
            raise StorageError(
                "device too small for one block per partition"
            )
        self.partitions = {}
        cursor = 0
        for name in PARTITION_NAMES:
            # align partitions to block boundaries, at least one block each
            size = int(self.capacity_bytes * DEFAULT_FRACTIONS[name])
            size = max(BLOCK_BYTES, size - size % BLOCK_BYTES)
            self.partitions[name] = Partition(name, cursor, size)
            cursor += size
        if cursor > self.capacity_bytes:
            raise StorageError(
                f"partitions need {cursor} B, device has {self.capacity_bytes} B"
            )

    def __getitem__(self, name: str) -> Partition:
        try:
            return self.partitions[name]
        except KeyError:
            raise StorageError(f"unknown partition {name!r}") from None
