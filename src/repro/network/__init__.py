"""Wireless networking: packets, the BER channel, radios, TDMA, ARQ, partitions."""

from repro.network.arq import ARQConfig, ARQResult, ARQStats, ReliableLink
from repro.network.channel import BitErrorChannel, flip_bits
from repro.network.network import (
    DROP_ON_ERROR,
    DeliveryOutcome,
    DeliveryStats,
    WirelessNetwork,
)
from repro.network.packet import (
    BROADCAST,
    HEADER_BITS,
    MAX_PAYLOAD_BYTES,
    PACKET_OVERHEAD_BITS,
    Header,
    Packet,
    PayloadKind,
    packet_airtime_ms,
    packets_needed,
)
from repro.network.partition import SPLIT_MODES, PartitionMatrix
from repro.network.radio import (
    EXTERNAL_RADIO,
    HIGH_PERF,
    LOW_BER,
    LOW_DATA_RATE,
    LOW_POWER,
    RADIO_CATALOG,
    RadioSpec,
    get_radio,
    path_loss_db,
    scale_radio_to_distance,
)
from repro.network.tdma import (
    DEFAULT_GUARD_MS,
    TDMAConfig,
    TDMASchedule,
)

__all__ = [
    "ARQConfig",
    "ARQResult",
    "ARQStats",
    "ReliableLink",
    "BitErrorChannel",
    "flip_bits",
    "DROP_ON_ERROR",
    "DeliveryOutcome",
    "DeliveryStats",
    "WirelessNetwork",
    "BROADCAST",
    "HEADER_BITS",
    "MAX_PAYLOAD_BYTES",
    "PACKET_OVERHEAD_BITS",
    "Header",
    "Packet",
    "PayloadKind",
    "packet_airtime_ms",
    "packets_needed",
    "PartitionMatrix",
    "SPLIT_MODES",
    "EXTERNAL_RADIO",
    "HIGH_PERF",
    "LOW_BER",
    "LOW_DATA_RATE",
    "LOW_POWER",
    "RADIO_CATALOG",
    "RadioSpec",
    "get_radio",
    "path_loss_db",
    "scale_radio_to_distance",
    "DEFAULT_GUARD_MS",
    "TDMAConfig",
    "TDMASchedule",
]
