"""The simulated clock telemetry is keyed to.

SCALO's evaluation counts cost in TDMA slots, packet airtimes, and the
analytical model's microseconds — never in host wall time.  Components
that know how much simulated time an action consumed (a packet's airtime,
an SC access, an ARQ backoff) advance this clock; spans read it for their
start/end stamps.  Two runs of the same seeded scenario therefore produce
*identical* timestamps, which is what makes trace diffs meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class SimClock:
    """Monotonic simulated time in microseconds."""

    now_us: float = field(init=False, default=0.0)

    def advance_us(self, delta_us: float) -> float:
        """Move time forward; negative deltas are clamped (time is monotonic)."""
        if delta_us > 0:
            self.now_us += delta_us
        return self.now_us

    def advance_ms(self, delta_ms: float) -> float:
        return self.advance_us(delta_ms * 1e3)

    @property
    def now_ms(self) -> float:
        return self.now_us / 1e3
