"""Processing-element instances: clock domains and frequency division.

SCALO composes PEs in a GALS (globally asynchronous, locally synchronous)
architecture: every PE sits in its own clock domain and can be slowed to
``f_max / k`` for an integer divider ``k`` chosen to just sustain the
application's data rate (paper §3.2, "Optimal Power Tuning").  Power is
costed once, by the scheduler (``repro.scheduler.constraints``), from the
catalog figures.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.hardware.catalog import PESpec


@dataclass
class ClockDomain:
    """A pausable per-PE clock, divisible down from ``max_freq_mhz``.

    The divider is realised in hardware as a counter passing through every
    k-th pulse; it costs only microwatts (paper cites QDI constant-time
    counters) so we ignore its power.  The compiled program carries the
    chosen dividers (``scalo_set_clock_divider``).
    """

    max_freq_mhz: float

    def __post_init__(self) -> None:
        if self.max_freq_mhz <= 0:
            raise ConfigurationError("clock max frequency must be positive")

    def slowest_divider_for(self, required_freq_mhz: float) -> int:
        """Largest integer divider whose output still meets ``required_freq_mhz``.

        This is the power-optimal setting: the slowest clock that sustains
        the target data rate.
        """
        if required_freq_mhz <= 0:
            raise ConfigurationError("required frequency must be positive")
        if required_freq_mhz > self.max_freq_mhz:
            raise ConfigurationError(
                f"required {required_freq_mhz} MHz exceeds max "
                f"{self.max_freq_mhz} MHz"
            )
        return int(self.max_freq_mhz // required_freq_mhz)


@dataclass
class ProcessingElement:
    """A live PE instance of a catalog spec."""

    spec: PESpec

    # -- latency ---------------------------------------------------------------

    @property
    def latency_ms(self) -> float:
        """Latency for one window/batch at the current configuration.

        The paper's multi-rail frequency scheme keeps PE latency at the
        Table 1 value regardless of how many inputs are active, as long as
        the clock meets the data rate; we model exactly that.  For
        data-dependent PEs the caller must supply latency externally.
        """
        if self.spec.latency_ms is None:
            raise ConfigurationError(
                f"{self.spec.name} has data-dependent latency; "
                "compute it from the workload instead"
            )
        return self.spec.latency_ms
