"""SNTP clock synchronisation across SCALO nodes (paper §3.6).

One node is the server; clients exchange timestamped messages and adjust
their offsets from the measured round-trip, repeating until every clock
is within the target precision (a few microseconds).  During sync the
intra-SCALO network is unavailable to applications; we account for that
airtime.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.network.tdma import TDMAConfig

#: Target synchronisation precision (us).
TARGET_PRECISION_US = 5.0

#: SNTP message payload (4 timestamps x 8 B, as in RFC 1769).
SNTP_PAYLOAD_BYTES = 32

#: Per-message path-delay asymmetry (us): twice the standard deviation
#: of each exchange's draw.
SYNC_JITTER_US = 2.0

#: Exchange rounds after which a pass reports whatever it reached.
MAX_SYNC_ROUNDS = 20


@dataclass
class NodeClock:
    """A node clock: its offset from true time.

    SCALO's pausable clock generators see only picoseconds of
    uncertainty, and body temperature is stable, so drift is negligible:
    the daily SNTP pass trims the accumulated offset.
    """

    offset_us: float


@dataclass
class SyncReport:
    """Outcome of one synchronisation pass."""

    rounds: int
    final_offsets_us: list[float]
    airtime_ms: float

    @property
    def worst_offset_us(self) -> float:
        return max(abs(x) for x in self.final_offsets_us)


@dataclass
class SNTPSynchroniser:
    """Run SNTP rounds between a server node and its clients."""

    tdma: TDMAConfig = field(default_factory=TDMAConfig)
    seed: int = 0

    def synchronise(self, clocks: list[NodeClock]) -> SyncReport:
        """Iterate offset exchanges until all clients are within target.

        The first clock is the server; every other one is a client.

        The classic SNTP estimate cancels the symmetric part of the path
        delay; the residual error per round is the delay *asymmetry*
        (jitter), so each round shrinks the offset to jitter scale.
        """
        if not clocks:
            raise ConfigurationError("no clocks to synchronise")
        rng = np.random.default_rng(self.seed)
        server = clocks[0]
        message_ms = 2 * self.tdma.slot_ms(SNTP_PAYLOAD_BYTES)

        airtime_ms = 0.0
        for round_index in range(1, MAX_SYNC_ROUNDS + 1):
            done = True
            for clock in clocks[1:]:
                airtime_ms += message_ms
                asymmetry = rng.normal(0.0, SYNC_JITTER_US / 2)
                measured_offset = (clock.offset_us - server.offset_us) + asymmetry
                clock.offset_us -= measured_offset
                if abs(clock.offset_us - server.offset_us) > TARGET_PRECISION_US:
                    done = False
            if done:
                relative = [
                    c.offset_us - server.offset_us for c in clocks
                ]
                return SyncReport(round_index, relative, airtime_ms)
        relative = [c.offset_us - server.offset_us for c in clocks]
        return SyncReport(MAX_SYNC_ROUNDS, relative, airtime_ms)
