"""Signal-processing substrate: the feature kernels of the small PEs."""

from repro.signal.features import (
    adaptive_threshold,
    nonlinear_energy,
    spike_band_power_multichannel,
    threshold_crossings,
)

__all__ = [
    "adaptive_threshold",
    "nonlinear_energy",
    "spike_band_power_multichannel",
    "threshold_crossings",
]
