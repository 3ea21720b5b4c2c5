"""Electrical stimulation: the closed loop's actuator (paper §2.1-2.2).

When propagation is confirmed (seizure spread), the electrodes are
repurposed through the DAC to deliver charge-balanced biphasic pulse
trains.  This module provides:

* :class:`StimulationProtocol` — amplitude/width/frequency of a biphasic
  train, with the charge-balance invariant built in;
* :func:`check_safety` — the Shannon charge-density limit every protocol
  must clear before the MC will execute it;
* :class:`Stimulator` — per-node execution: DAC energy accounting,
  refractory enforcement, and an event log;
* :func:`stimulate_from_confirmations` — the glue from propagation
  events to stimulation commands.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.units import DAC_POWER_MW

#: Shannon safety limit: k = log10(Q/A) + log10(Q/area) <= 1.85 (uC, cm^2).
SHANNON_K_LIMIT = 1.85

#: Geometric surface area of one micro-electrode site (cm^2).
ELECTRODE_AREA_CM2 = 1e-4

#: Minimum gap between stimulation trains on one electrode (ms).
REFRACTORY_MS = 100.0


@dataclass(frozen=True)
class StimulationProtocol:
    """A charge-balanced biphasic pulse train.

    Attributes:
        amplitude_ua: current of each phase (uA).
        phase_us: duration of each phase (us).
        frequency_hz: pulse repetition rate.
        train_ms: total train duration.
    """

    amplitude_ua: float = 100.0
    phase_us: float = 200.0
    frequency_hz: float = 130.0
    train_ms: float = 100.0

    def __post_init__(self) -> None:
        if min(self.amplitude_ua, self.phase_us, self.frequency_hz,
               self.train_ms) <= 0:
            raise ConfigurationError("protocol parameters must be positive")
        if self.frequency_hz * 2 * self.phase_us * 1e-6 > 1.0:
            raise ConfigurationError(
                "phases overlap: frequency x pulse width exceeds 100 % duty"
            )

    @property
    def charge_per_phase_uc(self) -> float:
        """Charge per phase (uC) — balanced by the opposite phase."""
        return self.amplitude_ua * self.phase_us * 1e-6

    def shannon_k(self) -> float:
        """The Shannon parameter k for this protocol on an electrode of
        :data:`ELECTRODE_AREA_CM2`."""
        charge = self.charge_per_phase_uc
        density = charge / ELECTRODE_AREA_CM2
        return float(np.log10(charge) + np.log10(density))


#: The train every stimulator delivers unless a call passes its own.
DEFAULT_PROTOCOL = StimulationProtocol()


def check_safety(protocol: StimulationProtocol) -> bool:
    """True when the protocol sits below the Shannon damage threshold."""
    return protocol.shannon_k() <= SHANNON_K_LIMIT


@dataclass(frozen=True)
class StimulationEvent:
    """One executed train."""

    node: int
    electrode: int
    time_ms: float
    protocol: StimulationProtocol


@dataclass
class Stimulator:
    """Per-node stimulation execution with safety and refractory checks."""

    node_id: int
    n_electrodes: int
    events: list[StimulationEvent] = field(init=False, default_factory=list)
    _last_train_ms: dict[int, float] = field(init=False, default_factory=dict)

    def stimulate(
        self,
        electrode: int,
        time_ms: float,
        protocol: StimulationProtocol | None = None,
    ) -> StimulationEvent | None:
        """Execute a train; returns None when suppressed by refractory.

        Raises:
            ConfigurationError: for unsafe protocols or bad electrodes.
        """
        if not 0 <= electrode < self.n_electrodes:
            raise ConfigurationError(f"electrode {electrode} out of range")
        protocol = protocol if protocol is not None else DEFAULT_PROTOCOL
        if not check_safety(protocol):
            raise ConfigurationError(
                f"protocol exceeds the Shannon limit "
                f"(k={protocol.shannon_k():.2f} > {SHANNON_K_LIMIT})"
            )
        last = self._last_train_ms.get(electrode)
        if last is not None and time_ms - last < REFRACTORY_MS:
            return None
        event = StimulationEvent(self.node_id, electrode, time_ms, protocol)
        self.events.append(event)
        self._last_train_ms[electrode] = time_ms
        return event

    def energy_mj(self) -> float:
        """DAC energy spent across all logged trains."""
        total_ms = sum(e.protocol.train_ms for e in self.events)
        return DAC_POWER_MW * total_ms / 1e3


def stimulate_from_confirmations(
    confirmations,
    stimulators: dict[int, Stimulator],
    window_ms: float,
) -> list[StimulationEvent]:
    """Drive stimulators from seizure-propagation confirmations.

    Each confirmed propagation triggers a train on electrode 0 of the
    confirming node (the site anticipating spread), subject to safety
    and refractory.
    """
    executed = []
    for event in confirmations:
        stimulator = stimulators.get(event.confirming_node)
        if stimulator is None:
            raise ConfigurationError(
                f"no stimulator for node {event.confirming_node}"
            )
        result = stimulator.stimulate(0, event.window_index * window_ms)
        if result is not None:
            executed.append(result)
    return executed
