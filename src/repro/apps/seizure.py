"""Seizure detection and distributed propagation analysis (paper Fig. 3a/5).

Two layers:

* :class:`SeizureDetector` — the local per-node pipeline: FFT/band-power
  features through a linear SVM (Shiao et al. style), running on 4 ms
  windows.
* :class:`SeizurePropagationSimulator` — the distributed protocol: on a
  local detection, a node broadcasts the window's *hashes*; receivers
  check them against their recent local hashes (CCHECK); on a collision
  the full signal window is exchanged and compared exactly (DTW); a
  confirmed match forecasts spread and triggers stimulation at the
  receiver (paper §3.1).

The simulator exposes Fig. 15a's error knob, a hash *encoding* error
rate (a window hashes to garbage).  Fig. 15b's network loss process
replays a clean trace (:func:`repro.eval.delay.network_delay`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.datasets.synthetic_ieeg import SyntheticIEEG
from repro.errors import ConfigurationError
from repro.decoders.svm import LinearSVM, train_linear_svm
from repro.hashing.collision import (
    HASH_HORIZON_MS,
    CollisionChecker,
    RecentHashStore,
)
from repro.hashing.lsh import LSHFamily
from repro.similarity.dtw import DTW_BAND, dtw_rows
from repro.units import WINDOW_SAMPLES


def window_features(window: np.ndarray) -> np.ndarray:
    """Per-window detection features: amplitude + spectral summary.

    A 4 ms window sees a seizure as a large low-frequency excursion, so
    the discriminative features are amplitude statistics plus the coarse
    FFT magnitude profile (the FFT PE's output, aggregated).
    """
    w = np.asarray(window, dtype=float)
    spectrum = np.abs(np.fft.rfft(w))
    n = spectrum.shape[0]
    thirds = [spectrum[: n // 3].mean(), spectrum[n // 3 : 2 * n // 3].mean(),
              spectrum[2 * n // 3 :].mean()]
    return np.array(
        [
            np.mean(np.abs(w)),
            np.std(w),
            np.max(np.abs(w)),
            np.mean(np.abs(np.diff(w))),  # line length
            *thirds,
        ]
    )


@dataclass
class SeizureDetector:
    """The local detection stage: features -> linear SVM."""

    svm: LinearSVM

    def detect_window(self, window: np.ndarray) -> bool:
        return bool(self.svm.predict(window_features(window)))

    @classmethod
    def train(
        cls,
        windows: np.ndarray,
        labels: np.ndarray,
        seed: int = 0,
    ) -> "SeizureDetector":
        """Train from labelled windows ``(n_windows, n_samples)``."""
        features = np.stack([window_features(w) for w in np.asarray(windows)])
        svm = train_linear_svm(features, np.asarray(labels, dtype=int), seed=seed)
        return cls(svm)


def train_detector_from_recording(
    recording: SyntheticIEEG,
    max_windows_per_node: int = 400,
    seed: int = 0,
) -> SeizureDetector:
    """Fit one shared detector from a recording's ground truth."""
    rng = np.random.default_rng(seed)
    all_windows = []
    all_labels = []
    n_windows = recording.n_samples // WINDOW_SAMPLES
    for node in range(recording.n_nodes):
        labels = recording.window_labels(WINDOW_SAMPLES, node)
        pick = rng.permutation(n_windows)[:max_windows_per_node]
        for w in pick:
            electrode = int(rng.integers(recording.n_electrodes))
            start = w * WINDOW_SAMPLES
            all_windows.append(
                recording.data[node, electrode, start : start + WINDOW_SAMPLES]
            )
            all_labels.append(labels[w])
    return SeizureDetector.train(
        np.stack(all_windows), np.asarray(all_labels), seed=seed
    )


@dataclass
class PropagationEvent:
    """One confirmed propagation: who confirmed whose seizure, and when."""

    source_node: int
    confirming_node: int
    window_index: int
    dtw_cost: float
    #: how many independent electrode-level hash collisions backed this
    #: confirmation — the redundancy that makes hash errors survivable
    n_collisions: int = 1


@dataclass
class SimulationResult:
    """Everything a propagation run produced."""

    confirmations: list[PropagationEvent] = field(init=False, default_factory=list)
    hash_broadcasts: int = field(init=False, default=0)
    signal_exchanges: int = field(init=False, default=0)
    stimulations: list[tuple[int, int]] = field(init=False, default_factory=list)


@dataclass
class SeizurePropagationSimulator:
    """Window-synchronous functional simulation of the distributed protocol.

    Args:
        recording: the multi-node dataset.
        detector: shared local detector.
        lsh: the configured hash family (all nodes share seeds).
        dtw_threshold: exact-comparison match threshold.
        hash_error_rate: probability an electrode-window's hash encodes to
            garbage (Fig. 15a's knob).
        seed: RNG seed for the error process.
    """

    recording: SyntheticIEEG
    detector: SeizureDetector
    lsh: LSHFamily
    dtw_threshold: float = 60.0
    hash_error_rate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.hash_error_rate <= 1:
            raise ConfigurationError("hash error rate must be in [0, 1]")
        self._rng = np.random.default_rng(self.seed)

    def run(self, max_windows: int | None = None) -> SimulationResult:
        rec = self.recording
        n_windows = rec.n_samples // WINDOW_SAMPLES
        if max_windows is not None:
            n_windows = min(n_windows, max_windows)
        window_ms = WINDOW_SAMPLES * 1e3 / rec.fs_hz

        stores = [RecentHashStore() for _ in range(rec.n_nodes)]
        checker = CollisionChecker(self.lsh.config.min_matching)
        result = SimulationResult()
        # colliding pairs, (w, src, dst, n_collisions) and their two
        # windows, scored in one DTW call after the loop: nothing in the
        # loop reads a cost
        exchanges: list[tuple[int, int, int, int]] = []
        src_windows: list[np.ndarray] = []
        dst_windows: list[np.ndarray] = []

        for w in range(n_windows):
            start = w * WINDOW_SAMPLES
            now_ms = (w + 1) * window_ms
            windows = rec.data[:, :, start : start + WINDOW_SAMPLES]
            # 1. every node hashes and stores its window (always-on); one
            # batch for all nodes, walked in node then electrode order so
            # the hash-error draws keep their sequence
            hashed = iter(
                self.lsh.hash_windows(
                    windows.reshape(-1, windows.shape[-1])
                ).tolist()
            )
            node_hashes: list[list[tuple[int, ...]]] = []
            for node in range(rec.n_nodes):
                signatures = []
                for _ in range(rec.n_electrodes):
                    sig = tuple(next(hashed))
                    if (
                        self.hash_error_rate
                        and self._rng.random() < self.hash_error_rate
                    ):
                        sig = tuple(
                            int(self._rng.integers(1 << self.lsh.config.bits))
                            for _ in sig
                        )
                    signatures.append(sig)
                stores[node].add_batch(now_ms, signatures)
                stores[node].evict_before(now_ms - 4 * HASH_HORIZON_MS)
                node_hashes.append(signatures)

            # 2. local detection (cheap proxy: the node's mean channel)
            detecting = []
            for node in range(rec.n_nodes):
                mean_channel = windows[node].mean(axis=0)
                if self.detector.detect_window(mean_channel):
                    detecting.append(node)

            # 3. detecting nodes broadcast hashes; receivers collision-check
            for src in detecting:
                result.hash_broadcasts += 1
                for dst in range(rec.n_nodes):
                    if dst == src:
                        continue
                    local = stores[dst].recent(now_ms)
                    collisions = checker.check(node_hashes[src], local)
                    if not collisions:
                        continue
                    # 4. exact comparison of the colliding pair
                    result.signal_exchanges += 1
                    src_electrode, record = collisions[0]
                    exchanges.append((w, src, dst, len(collisions)))
                    src_windows.append(windows[src, src_electrode])
                    dst_windows.append(windows[dst, record.electrode])

        costs = dtw_rows(
            np.reshape(src_windows, (-1, WINDOW_SAMPLES)),
            np.reshape(dst_windows, (-1, WINDOW_SAMPLES)),
            DTW_BAND,
        )
        for (w, src, dst, n_collisions), cost in zip(exchanges, costs.tolist()):
            if cost <= self.dtw_threshold:
                result.confirmations.append(
                    PropagationEvent(src, dst, w, cost, n_collisions=n_collisions)
                )
                result.stimulations.append((dst, w))
        return result
