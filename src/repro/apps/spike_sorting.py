"""Online spike sorting with hash-based template matching (Fig. 3c/7).

The pipeline: NEO emphasises spikes, a threshold detects them, each spike
snippet is hashed (EMD hash) and compared against the hashes of stored
templates; only colliding templates get the exact (EMD) comparison.  The
exact-matching baseline compares every spike against every template — the
accuracy reference the paper reports being within 5 % of (§6.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.datasets.spikes import SPIKE_SAMPLES, SpikeDataset
from repro.errors import ConfigurationError
from repro.hashing.emd_hash import EMDHash
from repro.signal.features import (
    REFRACTORY_SAMPLES,
    adaptive_threshold,
    nonlinear_energy,
    threshold_crossings,
)
from repro.similarity.emd import emd_rows


#: Boxcar width for NEO smoothing before thresholding (samples).
NEO_SMOOTH_SAMPLES = 6

def detect_spikes(data: np.ndarray) -> np.ndarray:
    """Detect spike onsets across channels with smoothed NEO + threshold.

    Returns sorted, deduplicated sample indexes (the start of each
    snippet window, aligned a few samples before the NEO peak).
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2:
        raise ConfigurationError("expected (channels, samples)")
    boxcar = np.ones(NEO_SMOOTH_SAMPLES) / NEO_SMOOTH_SAMPLES
    detections: list[int] = []
    for channel in data:
        energy = np.convolve(nonlinear_energy(channel), boxcar, mode="same")
        threshold = adaptive_threshold(energy)
        crossings = threshold_crossings(energy, threshold)
        detections.extend(int(c) for c in crossings)
    detections.sort()
    merged: list[int] = []
    for t in detections:
        if merged and t - merged[-1] <= REFRACTORY_SAMPLES:
            continue
        merged.append(t)
    # back up so the trough sits inside the snippet
    return np.asarray([max(0, t - 10) for t in merged], dtype=np.int64)


#: Amplitude histogramming of peak-normalised waveforms: range and bins
#: calibrated so within-neuron hash jitter is ~3x smaller than
#: between-template spread.
_WAVE_RANGE = (-1.3, 1.1)
_WAVE_BINS = 24


def _default_spike_hasher() -> EMDHash:
    return EMDHash(
        n_bins=_WAVE_BINS,
        bucket_width=0.08,
        n_components=4,
        value_range=_WAVE_RANGE,
        normalise=False,  # the matcher peak-normalises waveforms itself
    )


def _peak_normalise(wave: np.ndarray) -> np.ndarray:
    peak = float(np.max(np.abs(wave)))
    return wave / peak if peak > 0 else wave


@dataclass
class TemplateMatcher:
    """Hash-filtered template matching over a node's stored templates.

    Waveforms are peak-normalised before histogramming so the EMD compares
    *shape* rather than amplitude (spike amplitudes jitter and drift).
    """

    templates: np.ndarray  # (n_neurons, n_channels, SPIKE_SAMPLES)
    #: bins waveforms for both the hash filter and the exact EMD
    hasher: EMDHash = field(
        default_factory=_default_spike_hasher, init=False, repr=False
    )

    def __post_init__(self) -> None:
        self.templates = np.asarray(self.templates, dtype=float)
        if self.templates.ndim != 3:
            raise ConfigurationError("templates must be (neurons, channels, t)")
        self._dominant = np.array(
            [
                int(np.argmax(np.max(np.abs(t), axis=1)))
                for t in self.templates
            ]
        )
        self._waves = np.stack(
            [_peak_normalise(t[c]) for t, c in zip(self.templates, self._dominant)]
        )
        self._histograms = self.hasher.histograms(self._waves)
        #: (n_neurons, n_components) template signatures
        self._signatures = self.hasher.hash_histograms(self._histograms)

    @property
    def n_neurons(self) -> int:
        return self.templates.shape[0]

    def _snippet_wave(self, snippet: np.ndarray) -> np.ndarray:
        """The snippet's strongest channel, peak-normalised."""
        snippet = np.asarray(snippet, dtype=float)
        if snippet.ndim != 2:
            raise ConfigurationError("snippet must be (channels, samples)")
        channel = int(np.argmax(np.max(np.abs(snippet), axis=1)))
        return _peak_normalise(snippet[channel])

    def _histogram(self, snippet: np.ndarray) -> np.ndarray:
        """The ``(1, n_bins)`` histogram of :meth:`_snippet_wave`, the one
        both the hash filter and the exact EMD read."""
        return self.hasher.histograms(self._snippet_wave(snippet)[None])

    def _closest(self, histogram: np.ndarray, candidates: np.ndarray) -> int:
        """The candidate template with the least exact EMD to a snippet's
        ``(1, n_bins)`` histogram."""
        costs = emd_rows(histogram[0], self._histograms[candidates])
        return int(candidates[int(np.argmin(costs))])

    def classify_exact(self, snippet: np.ndarray) -> int:
        """Baseline: exact EMD against every template."""
        return self._closest(self._histogram(snippet), np.arange(self.n_neurons))

    def classify_hashed(self, snippet: np.ndarray) -> tuple[int, int]:
        """Hash-filtered matching.

        Returns:
            (neuron, n_exact_comparisons) — the comparison count is the
            work the hash filter saved versus ``n_neurons``.
        """
        histogram = self._histogram(snippet)
        signature = self.hasher.hash_histograms(histogram)[0]
        # OR-construction: a template is a candidate when any component
        # collides (the batch form of EMDHash.collision)
        candidates = np.flatnonzero((self._signatures == signature).any(axis=1))
        if not candidates.size:
            # hash miss: fall back to the full exact scan (rare)
            candidates = np.arange(self.n_neurons)
        return self._closest(histogram, candidates), candidates.size


@dataclass
class SortingResult:
    """Output of one sorting run."""

    spike_times: np.ndarray  # detected snippet starts
    assignments: np.ndarray  # neuron per detected spike
    exact_comparisons: int  # total exact-EMD invocations
    method: str

    @property
    def n_sorted(self) -> int:
        return self.spike_times.shape[0]


@dataclass
class SpikeSorter:
    """Detection + template matching over a whole recording."""

    matcher: TemplateMatcher

    @classmethod
    def from_dataset(cls, dataset: SpikeDataset) -> "SpikeSorter":
        """Build with the dataset's ground-truth templates (offline-trained
        templates, per Rutishauser et al.)."""
        return cls(TemplateMatcher(dataset.templates))

    def sort(self, data: np.ndarray, method: str = "hash") -> SortingResult:
        if method not in ("hash", "exact"):
            raise ConfigurationError("method must be 'hash' or 'exact'")
        data = np.asarray(data, dtype=float)
        times = detect_spikes(data)
        times = times[times + SPIKE_SAMPLES <= data.shape[1]]
        assignments = np.empty(times.shape[0], dtype=np.int64)
        comparisons = 0
        for i, t in enumerate(times):
            snippet = data[:, t : t + SPIKE_SAMPLES]
            if method == "exact":
                assignments[i] = self.matcher.classify_exact(snippet)
                comparisons += self.matcher.n_neurons
            else:
                neuron, n_cmp = self.matcher.classify_hashed(snippet)
                assignments[i] = neuron
                comparisons += n_cmp
        return SortingResult(times, assignments, comparisons, method)


def sorting_accuracy(dataset: SpikeDataset, result: SortingResult) -> float:
    """Fraction of *matched* detections assigned the right neuron.

    A detection matches the nearest ground-truth spike within the
    tolerance; unmatched detections (false positives) count as errors,
    and undetected spikes are excluded (detection recall is reported
    separately by :func:`detection_recall`).
    """
    if result.n_sorted == 0:
        return 0.0
    truth_times = dataset.spike_times
    correct = 0
    for t, neuron in zip(result.spike_times, result.assignments):
        idx = int(np.searchsorted(truth_times, t))
        best = None
        for j in (idx - 1, idx, idx + 1):
            if 0 <= j < truth_times.shape[0]:
                dist = abs(int(truth_times[j]) - int(t))
                if best is None or dist < best[0]:
                    best = (dist, j)
        if best is not None and best[0] <= REFRACTORY_SAMPLES:
            if dataset.spike_labels[best[1]] == neuron:
                correct += 1
    return correct / result.n_sorted


def detection_recall(dataset: SpikeDataset, result: SortingResult) -> float:
    """Fraction of ground-truth spikes with a nearby detection."""
    if dataset.n_spikes == 0:
        return 1.0
    detected_times = np.sort(result.spike_times)
    found = 0
    for t in dataset.spike_times:
        idx = int(np.searchsorted(detected_times, t))
        for j in (idx - 1, idx):
            if 0 <= j < detected_times.shape[0] and abs(
                int(detected_times[j]) - int(t)
            ) <= REFRACTORY_SAMPLES:
                found += 1
                break
    return found / dataset.n_spikes
