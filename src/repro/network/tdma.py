"""TDMA medium access for the intra-SCALO network.

SCALO's implant radios share one frequency to save power, so all access is
serial: the ILP emits a fixed slot schedule and every node transmits only
in its slots (paper §3.4).  This module provides the medium parameters
(one packet's airtime, one slot) and the round-robin slot frame the
scheduler materialises; the per-pattern airtime the figures use is the
scheduler's own row (:func:`repro.scheduler.constraints.build_constraints`).

A slot carries one maximum-size packet plus a guard/turnaround interval —
the per-slot overhead is what makes all-to-all exchanges degrade with node
count in Fig. 8b.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError, NetworkError
from repro.network.packet import MAX_PAYLOAD_BYTES, PACKET_OVERHEAD_BITS
from repro.network.radio import LOW_POWER, RadioSpec

#: Guard + turnaround time between slots (ms).  SCALO's pausable clock
#: generators keep nodes synchronised to microseconds (paper §3.6), so the
#: fixed TDMA schedule needs only a ~2 us guard.
DEFAULT_GUARD_MS = 0.002


@dataclass
class TDMAConfig:
    """Medium parameters shared by every node."""

    radio: RadioSpec = field(default_factory=lambda: LOW_POWER)
    guard_ms: float = DEFAULT_GUARD_MS

    def packet_airtime_ms(self, payload_bytes: int) -> float:
        """On-air time of one packet (no guard)."""
        if not 0 <= payload_bytes <= MAX_PAYLOAD_BYTES:
            raise NetworkError(f"invalid payload size {payload_bytes}")
        bits = PACKET_OVERHEAD_BITS + 8 * payload_bytes
        return self.radio.airtime_ms(bits)

    def slot_ms(self, payload_bytes: int = MAX_PAYLOAD_BYTES) -> float:
        """One TDMA slot: packet airtime plus the guard interval."""
        return self.packet_airtime_ms(payload_bytes) + self.guard_ms


@dataclass
class TDMASchedule:
    """A fixed, repeating slot assignment emitted by the ILP scheduler."""

    config: TDMAConfig
    slot_owners: list[int]  # node id per slot, in frame order

    def __post_init__(self) -> None:
        if not self.slot_owners:
            raise ConfigurationError("schedule needs at least one slot")

    @property
    def frame_ms(self) -> float:
        """Duration of one full frame."""
        return len(self.slot_owners) * self.config.slot_ms()

    @classmethod
    def round_robin(cls, config: TDMAConfig, n_nodes: int,
                    slots_per_node: int = 1) -> "TDMASchedule":
        """The default fair schedule: each node in turn."""
        if n_nodes < 1 or slots_per_node < 1:
            raise ConfigurationError("need positive node and slot counts")
        owners = [node for node in range(n_nodes) for _ in range(slots_per_node)]
        return cls(config, owners)
