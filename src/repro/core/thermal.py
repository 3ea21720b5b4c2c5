"""Thermal safety and implant placement (paper §5, "Thermal and power
limits").

Finite-element studies show an implant's temperature rise decays steeply
with distance thanks to cerebrospinal-fluid and blood flow: ~5 % of the
peak at 10 mm from the implant edge, ~2 % at 20 mm.  We fit the paper's
two quoted points with a power law and use it to check inter-implant
coupling; with the default 20 mm spacing, up to ~60 implants fit a
hemispherical cortical surface of 86 mm radius at 15 mW each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.units import NODE_POWER_CAP_MW

#: Max temperature rise any brain region tolerates (paper: 1 C).
MAX_TEMP_RISE_C = 1.0

#: Temperature rise at the implant surface when dissipating the 15 mW
#: cap.  The paper calls 15 mW a *conservative* limit; the margin below
#: the 1 C ceiling is what absorbs residual inter-implant coupling.
PEAK_RISE_C_AT_CAP = 0.78

#: Perfusion cutoff (mm): beyond a few centimetres blood flow carries
#: heat away exponentially (the bio-heat sink term), so far implants
#: contribute nothing — the paper's "negligible thermal coupling".
_PERFUSION_CUTOFF_MM = 40.0

#: Power-law x perfusion decay fitted exactly to the paper's two points:
#: rise(10 mm) = 5 % of peak, rise(20 mm) = 2 % of peak.
_DECAY_EXPONENT = (
    math.log(0.05 / 0.02) - 10.0 / _PERFUSION_CUTOFF_MM
) / math.log(20.0 / 10.0)
_DECAY_SCALE = 0.05 * 10.0**_DECAY_EXPONENT * math.exp(
    10.0 / _PERFUSION_CUTOFF_MM
)

#: Default inter-implant spacing (mm).
DEFAULT_SPACING_MM = 20.0

#: Hemispherical brain surface radius (mm), Nelson & Nunneley.
BRAIN_RADIUS_MM = 86.0

#: Effective exclusion area per implant in units of spacing^2 — accounts
#: for hexagonal packing inefficiency, surface curvature, and boundary
#: margins.  Calibrated to the paper's "up to 60 SCALO implants" at
#: 20 mm spacing on the 86 mm hemisphere.
_PACKING_FACTOR = 1.936


def relative_temperature_rise(distance_mm: float) -> float:
    """Fraction of the peak rise felt ``distance_mm`` from an implant edge."""
    if distance_mm < 0:
        raise ConfigurationError("distance cannot be negative")
    if distance_mm < 1.0:
        return 1.0
    power_law = _DECAY_SCALE * distance_mm**-_DECAY_EXPONENT
    perfusion = math.exp(-distance_mm / _PERFUSION_CUTOFF_MM)
    return min(1.0, power_law * perfusion)


def temperature_rise_c(power_mw: float, distance_mm: float) -> float:
    """Absolute rise (C) at a distance from an implant dissipating
    ``power_mw`` (linear bio-heat scaling)."""
    if power_mw < 0:
        raise ConfigurationError("power cannot be negative")
    peak = PEAK_RISE_C_AT_CAP * power_mw / NODE_POWER_CAP_MW
    return peak * relative_temperature_rise(distance_mm)


def max_implants(spacing_mm: float = DEFAULT_SPACING_MM) -> int:
    """Implants fitting the hemispherical surface at the given spacing."""
    if spacing_mm <= 0:
        raise ConfigurationError("spacing must be positive")
    surface = 2.0 * math.pi * BRAIN_RADIUS_MM**2
    return int(surface // (_PACKING_FACTOR * spacing_mm**2))


@dataclass(frozen=True)
class PlacementCheck:
    """Result of a thermal-safety evaluation for a uniform grid."""

    n_nodes: int
    spacing_mm: float
    per_node_power_mw: float
    worst_rise_c: float

    @property
    def safe(self) -> bool:
        return self.worst_rise_c <= MAX_TEMP_RISE_C


def check_placement(
    n_nodes: int,
    per_node_power_mw: float = NODE_POWER_CAP_MW,
    spacing_mm: float = DEFAULT_SPACING_MM,
) -> PlacementCheck:
    """Thermal check for ``n_nodes`` uniformly spaced implants.

    The worst node feels its own peak rise plus the ring-sum of its
    neighbours' decayed contributions (six first-ring neighbours at the
    spacing, twelve at twice the spacing, ...).
    """
    if n_nodes < 1:
        raise ConfigurationError("need at least one node")
    if n_nodes > max_implants(spacing_mm):
        raise ConfigurationError(
            f"{n_nodes} implants do not fit at {spacing_mm} mm spacing "
            f"(max {max_implants(spacing_mm)})"
        )
    own = temperature_rise_c(per_node_power_mw, 0.0)
    coupling = 0.0
    remaining = n_nodes - 1
    ring = 1
    while remaining > 0:
        ring_count = min(remaining, 6 * ring)
        coupling += ring_count * temperature_rise_c(
            per_node_power_mw, ring * spacing_mm
        )
        remaining -= ring_count
        ring += 1
    return PlacementCheck(n_nodes, spacing_mm, per_node_power_mw,
                          own + coupling)
