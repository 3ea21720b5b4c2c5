"""Radio models: the Table 3 intra-SCALO radios and the external radio.

The intra-SCALO radio is a modified Rahmani-Babakhani FDD UWB design:
7 Mbps, 1.721 mW, BER < 1e-5 at 20 cm through brain/skull/skin.  The
design-space exploration (paper §7) compares four (rate, power, BER)
triples, all at a 20 cm range.  The external radio (retained from HALO)
reaches 10 m at 46 Mbps for 9.2 mW.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class RadioSpec:
    """A radio characterised the way the paper's evaluation uses it."""

    name: str
    data_rate_mbps: float
    power_mw: float
    bit_error_rate: float

    def __post_init__(self) -> None:
        if self.data_rate_mbps <= 0 or self.power_mw <= 0:
            raise ConfigurationError("radio rate and power must be positive")
        if not 0 <= self.bit_error_rate < 1:
            raise ConfigurationError("BER must be in [0, 1)")

    def airtime_ms(self, n_bits: float) -> float:
        """Time to put ``n_bits`` on the air."""
        if n_bits < 0:
            raise ConfigurationError("bit count cannot be negative")
        return n_bits / (self.data_rate_mbps * 1e3)


#: Default intra-SCALO radio (paper Table 3, "Low Power").
LOW_POWER = RadioSpec("Low Power", 7.0, 1.721, 1e-5)

#: Table 3 alternatives.
HIGH_PERF = RadioSpec("High Perf", 14.0, 6.85, 1e-6)
LOW_BER = RadioSpec("Low BER", 7.0, 3.4, 1e-6)
LOW_DATA_RATE = RadioSpec("Low Data Rate", 3.5, 0.855, 1e-5)

RADIO_CATALOG: dict[str, RadioSpec] = {
    spec.name: spec for spec in (LOW_POWER, HIGH_PERF, LOW_BER, LOW_DATA_RATE)
}

#: The external (to-environment) radio retained from HALO: 46 Mbps / 10 m.
EXTERNAL_RADIO = RadioSpec("External", 46.0, 9.2, 1e-6)
