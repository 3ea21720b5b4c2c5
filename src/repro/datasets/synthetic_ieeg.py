"""Synthetic multi-site iEEG with annotated, propagating seizures.

Substitute for the gated Mayo Clinic recording (patient I001_P013) the
paper evaluates on.  What the experiments actually require from the data:

* pink-noise (1/f) background typical of iEEG,
* within-node spatial correlation (neighbouring electrodes see the same
  sources) and temporal correlation,
* seizures: large band-limited (3-8 Hz spike-wave) oscillations that begin
  at an onset node and *propagate* to a correlated subset of other nodes
  with per-node delays — the structure the hash/DTW comparison detects,
* ground-truth annotations (onset sample per node per seizure).

The generator provides exactly these statistics with explicit seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.units import ADC_SAMPLE_RATE_HZ

#: Fraction of non-onset nodes each seizure reaches (the rest stay
#: seizure-free: the uncorrelated signals the hash check filters out).
PROPAGATION_FRACTION = 1.0
#: Peak seizure gain over the unit-variance background.
SEIZURE_AMPLITUDE = 4.0
#: Weight of the shared per-node source mixed into every electrode
#: (0 = independent channels).
SPATIAL_CORRELATION = 0.6
#: Fundamental of the spike-wave discharge (Hz).
SEIZURE_BASE_FREQ_HZ = 5.0


@dataclass(frozen=True)
class SeizureEvent:
    """One seizure: onset at a node, propagation to others."""

    onset_node: int
    onset_sample: int
    duration_samples: int
    #: node -> arrival sample (onset node included); absent = not reached
    arrivals: dict[int, int] = field(default_factory=dict)


@dataclass
class SyntheticIEEG:
    """A generated recording plus its ground truth."""

    data: np.ndarray  # (n_nodes, n_electrodes, n_samples) float
    fs_hz: float
    seizures: list[SeizureEvent]

    @property
    def n_nodes(self) -> int:
        return self.data.shape[0]

    @property
    def n_electrodes(self) -> int:
        return self.data.shape[1]

    @property
    def n_samples(self) -> int:
        return self.data.shape[2]

    def window_labels(
        self, window_samples: int, node: int
    ) -> np.ndarray:
        """Per-window binary seizure labels for one node.

        A window is positive when it overlaps an active seizure interval
        at that node.
        """
        n_windows = self.n_samples // window_samples
        labels = np.zeros(n_windows, dtype=int)
        for seizure in self.seizures:
            if node not in seizure.arrivals:
                continue
            start = seizure.arrivals[node]
            stop = seizure.onset_sample + seizure.duration_samples
            first = start // window_samples
            last = min(n_windows, -(-stop // window_samples))
            labels[first:last] = 1
        return labels


def pink_noise(n_samples: int, rng: np.random.Generator) -> np.ndarray:
    """1/f noise via spectral shaping, unit variance."""
    if n_samples < 2:
        raise ConfigurationError("need at least 2 samples")
    white = rng.standard_normal(n_samples)
    spectrum = np.fft.rfft(white)
    freqs = np.fft.rfftfreq(n_samples)
    freqs[0] = freqs[1]  # avoid div by zero at DC
    spectrum /= freqs ** 0.5
    shaped = np.fft.irfft(spectrum, n=n_samples)
    return shaped / shaped.std()


def _seizure_waveform(
    n_samples: int, fs_hz: float, rng: np.random.Generator
) -> np.ndarray:
    """Spike-wave discharge: fundamental + harmonics with slow AM ramp."""
    t = np.arange(n_samples) / fs_hz
    freq = SEIZURE_BASE_FREQ_HZ * (1.0 + 0.1 * rng.standard_normal())
    phase = rng.uniform(0, 2 * np.pi)
    wave = (
        np.sin(2 * np.pi * freq * t + phase)
        + 0.5 * np.sin(2 * np.pi * 2 * freq * t + 2 * phase)
        + 0.25 * np.sin(2 * np.pi * 3 * freq * t + 3 * phase)
    )
    ramp = np.minimum(1.0, np.arange(n_samples) / max(1, int(0.05 * fs_hz)))
    taper = np.minimum(1.0, (n_samples - np.arange(n_samples)) /
                       max(1, int(0.05 * fs_hz)))
    return wave * ramp * taper


def generate_ieeg(
    n_nodes: int = 4,
    n_electrodes: int = 8,
    duration_s: float = 2.0,
    fs_hz: float = ADC_SAMPLE_RATE_HZ,
    n_seizures: int = 1,
    seizure_duration_s: float = 0.5,
    propagation_delay_ms: tuple[float, float] = (20.0, 100.0),
    seed: int = 0,
) -> SyntheticIEEG:
    """Generate a multi-node recording with propagating seizures."""
    if n_nodes < 1 or n_electrodes < 1:
        raise ConfigurationError("need positive node and electrode counts")
    rng = np.random.default_rng(seed)
    n_samples = int(round(duration_s * fs_hz))
    seizure_samples = int(round(seizure_duration_s * fs_hz))
    data = np.empty((n_nodes, n_electrodes, n_samples))

    for node in range(n_nodes):
        shared = pink_noise(n_samples, rng)
        for electrode in range(n_electrodes):
            own = pink_noise(n_samples, rng)
            data[node, electrode] = (
                SPATIAL_CORRELATION * shared
                + (1 - SPATIAL_CORRELATION) * own
            )

    seizures: list[SeizureEvent] = []
    if n_seizures:
        # space onsets so seizures (and margins) do not overlap
        slot = n_samples // n_seizures
        if slot <= seizure_samples + int(0.2 * fs_hz):
            raise ConfigurationError(
                "recording too short for the requested seizure count"
            )
        for k in range(n_seizures):
            onset_node = int(rng.integers(n_nodes))
            onset = k * slot + int(rng.integers(int(0.05 * fs_hz),
                                                slot - seizure_samples))
            arrivals = {onset_node: onset}
            others = [n for n in range(n_nodes) if n != onset_node]
            rng.shuffle(others)
            n_reached = int(round(PROPAGATION_FRACTION * len(others)))
            for node in others[:n_reached]:
                delay = rng.uniform(*propagation_delay_ms)
                arrivals[node] = onset + int(delay * fs_hz / 1e3)

            waveform = _seizure_waveform(seizure_samples, fs_hz, rng)
            for node, arrival in arrivals.items():
                stop = min(n_samples, arrival + seizure_samples)
                length = stop - arrival
                if length <= 0:
                    continue
                for electrode in range(n_electrodes):
                    gain = SEIZURE_AMPLITUDE * rng.uniform(0.7, 1.0)
                    data[node, electrode, arrival:stop] += (
                        gain * waveform[:length]
                    )
            seizures.append(
                SeizureEvent(onset_node, onset, seizure_samples, arrivals)
            )

    return SyntheticIEEG(data=data, fs_hz=fs_hz, seizures=seizures)
