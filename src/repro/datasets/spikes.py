"""Synthetic extracellular spike recordings with ground truth.

Substitute for the SpikeForest (rat CA1 tetrode), Kilosort (neuropixel),
and MEArec (simulated) datasets of the paper's spike-sorting evaluation.
What spike sorting results depend on — template separability, SNR, firing
rates, channel count — is controlled here per-profile; ground-truth spike
times and neuron labels come for free.

Spike templates are difference-of-Gaussians waveshapes (depolarisation
trough + repolarisation bump) with per-neuron width/amplitude, projected
onto channels with distance-decayed gains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.units import ADC_SAMPLE_RATE_HZ

#: Samples per spike waveform snippet (2 ms at 30 kHz).
SPIKE_SAMPLES = 60


@dataclass(frozen=True)
class SpikeDatasetProfile:
    """Knobs distinguishing the three paper datasets (scaled to software)."""

    name: str
    n_channels: int
    n_neurons: int
    firing_rate_hz: float
    noise_sigma: float
    amplitude_jitter: float
    drift_per_s: float


#: The three dataset profiles.  Channel counts are scaled down from the
#: originals (tetrode 4 / neuropixel 384 / MEA) to keep pure-Python
#: runtimes sane; separability difficulty mirrors the paper's accuracy
#: ordering (MEArec easiest 91 %, SpikeForest 82 %, Kilosort hardest 73 %).
PROFILES: dict[str, SpikeDatasetProfile] = {
    "spikeforest": SpikeDatasetProfile(
        "spikeforest", n_channels=4, n_neurons=10,
        firing_rate_hz=8.0, noise_sigma=0.30, amplitude_jitter=0.15,
        drift_per_s=0.02,
    ),
    "kilosort": SpikeDatasetProfile(
        "kilosort", n_channels=24, n_neurons=30,
        firing_rate_hz=6.0, noise_sigma=0.28, amplitude_jitter=0.15,
        drift_per_s=0.04,
    ),
    "mearec": SpikeDatasetProfile(
        "mearec", n_channels=8, n_neurons=20,
        firing_rate_hz=5.0, noise_sigma=0.15, amplitude_jitter=0.08,
        drift_per_s=0.0,
    ),
}


@dataclass
class SpikeDataset:
    """A generated recording with its ground truth."""

    profile: SpikeDatasetProfile
    data: np.ndarray  # (n_channels, n_samples), at ADC_SAMPLE_RATE_HZ
    spike_times: np.ndarray  # sample index of each spike (sorted)
    spike_labels: np.ndarray  # neuron id of each spike
    templates: np.ndarray  # (n_neurons, n_channels, SPIKE_SAMPLES)

    @property
    def n_spikes(self) -> int:
        return self.spike_times.shape[0]


def _template_waveform(rng: np.random.Generator) -> np.ndarray:
    """One neuron's canonical single-channel waveshape, peak-normalised."""
    t = np.arange(SPIKE_SAMPLES, dtype=float)
    trough_at = rng.uniform(14, 22)
    trough_width = rng.uniform(2.0, 5.0)
    bump_at = trough_at + rng.uniform(8, 16)
    bump_width = rng.uniform(5.0, 11.0)
    bump_gain = rng.uniform(0.25, 0.6)
    wave = (
        -np.exp(-0.5 * ((t - trough_at) / trough_width) ** 2)
        + bump_gain * np.exp(-0.5 * ((t - bump_at) / bump_width) ** 2)
    )
    return wave / np.max(np.abs(wave))


def generate_spikes(
    profile: str | SpikeDatasetProfile = "spikeforest",
    duration_s: float = 5.0,
    seed: int = 0,
) -> SpikeDataset:
    """Generate one recording for a dataset profile."""
    if isinstance(profile, str):
        try:
            profile = PROFILES[profile]
        except KeyError:
            raise ConfigurationError(
                f"unknown profile {profile!r}; choose from {sorted(PROFILES)}"
            ) from None
    rng = np.random.default_rng(seed)
    n_samples = int(round(duration_s * ADC_SAMPLE_RATE_HZ))
    if n_samples < 4 * SPIKE_SAMPLES:
        raise ConfigurationError("recording too short for spikes")

    # templates: waveshape x channel projection
    channel_positions = np.arange(profile.n_channels, dtype=float)
    templates = np.zeros((profile.n_neurons, profile.n_channels, SPIKE_SAMPLES))
    for neuron in range(profile.n_neurons):
        wave = _template_waveform(rng)
        center = rng.uniform(0, profile.n_channels - 1)
        spread = rng.uniform(0.6, 1.6)
        amplitude = rng.uniform(2.5, 6.0)
        gains = amplitude * np.exp(
            -0.5 * ((channel_positions - center) / spread) ** 2
        )
        templates[neuron] = gains[:, None] * wave[None, :]

    # Poisson spike trains with a refractory period, non-overlapping
    times: list[int] = []
    labels: list[int] = []
    margin = SPIKE_SAMPLES
    expected = int(profile.firing_rate_hz * duration_s * profile.n_neurons)
    candidates = rng.integers(margin, n_samples - margin, size=3 * expected)
    neuron_ids = rng.integers(0, profile.n_neurons, size=candidates.shape[0])
    occupied = np.zeros(n_samples, dtype=bool)
    for t, neuron in zip(candidates, neuron_ids):
        if len(times) >= expected:
            break
        if occupied[t : t + SPIKE_SAMPLES].any():
            continue
        occupied[max(0, t - SPIKE_SAMPLES // 2) : t + SPIKE_SAMPLES] = True
        times.append(int(t))
        labels.append(int(neuron))

    order = np.argsort(times)
    spike_times = np.asarray(times, dtype=np.int64)[order]
    spike_labels = np.asarray(labels, dtype=np.int64)[order]

    data = profile.noise_sigma * rng.standard_normal(
        (profile.n_channels, n_samples)
    )
    for t, neuron in zip(spike_times, spike_labels):
        jitter = 1.0 + profile.amplitude_jitter * rng.standard_normal()
        drift = 1.0 + profile.drift_per_s * (t / ADC_SAMPLE_RATE_HZ)
        data[:, t : t + SPIKE_SAMPLES] += (
            jitter * drift * templates[neuron]
        )

    return SpikeDataset(
        profile=profile,
        data=data,
        spike_times=spike_times,
        spike_labels=spike_labels,
        templates=templates,
    )
