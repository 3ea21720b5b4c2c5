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

The simulator exposes the two error knobs of the paper's Fig. 15
experiments: a hash *encoding* error rate (a window hashes to garbage)
and the network bit-error rate (a lost packet costs the whole round,
recovered at the next window).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.datasets.synthetic_ieeg import SyntheticIEEG
from repro.errors import ConfigurationError
from repro.decoders.svm import LinearSVM, train_linear_svm
from repro.faults.plan import FaultPlan
from repro.hashing.collision import CollisionChecker, RecentHashStore
from repro.hashing.lsh import LSHFamily
from repro.similarity.dtw import dtw_rows
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
    window_samples: int = WINDOW_SAMPLES,
    max_windows_per_node: int = 400,
    seed: int = 0,
) -> SeizureDetector:
    """Fit one shared detector from a recording's ground truth."""
    rng = np.random.default_rng(seed)
    all_windows = []
    all_labels = []
    n_windows = recording.n_samples // window_samples
    for node in range(recording.n_nodes):
        labels = recording.window_labels(window_samples, node)
        pick = rng.permutation(n_windows)[:max_windows_per_node]
        for w in pick:
            electrode = int(rng.integers(recording.n_electrodes))
            start = w * window_samples
            all_windows.append(
                recording.data[node, electrode, start : start + window_samples]
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

    detections: dict[int, list[int]] = field(default_factory=dict)
    confirmations: list[PropagationEvent] = field(default_factory=list)
    hash_broadcasts: int = 0
    hash_rounds_lost: int = 0
    signal_exchanges: int = 0
    stimulations: list[tuple[int, int]] = field(default_factory=list)
    #: node-windows skipped because the node was down (fault plan)
    node_windows_skipped: int = 0
    #: total node-windows the run covered (alive or not)
    node_windows_total: int = 0

    @property
    def coverage(self) -> float:
        """Fraction of node-windows actually processed."""
        if self.node_windows_total == 0:
            return 1.0
        return 1.0 - self.node_windows_skipped / self.node_windows_total

    @property
    def degraded(self) -> bool:
        return self.node_windows_skipped > 0


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
        packet_loss_rate: probability a node's per-window hash packet is
            lost entirely (Fig. 15b: one packet carries all the node's
            hashes, so a hit loses the whole round).
        fault_plan: optional :class:`~repro.faults.plan.FaultPlan` mapped
            window-index -> TDMA round.  A down node neither hashes nor
            detects; an alive node in a radio outage keeps working
            locally but cannot broadcast or receive.  The run proceeds
            over survivors and reports ``coverage``/``degraded`` instead
            of raising.
        seed: RNG seed for the error processes.
    """

    recording: SyntheticIEEG
    detector: SeizureDetector
    lsh: LSHFamily
    window_samples: int = WINDOW_SAMPLES
    horizon_ms: float = 100.0
    dtw_threshold: float = 60.0
    dtw_band: int = 10
    hash_error_rate: float = 0.0
    packet_loss_rate: float = 0.0
    fault_plan: FaultPlan | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.hash_error_rate <= 1:
            raise ConfigurationError("hash error rate must be in [0, 1]")
        if not 0 <= self.packet_loss_rate < 1:
            raise ConfigurationError("packet loss rate must be in [0, 1)")
        self._rng = np.random.default_rng(self.seed)

    def _window_ms(self) -> float:
        return self.window_samples * 1e3 / self.recording.fs_hz

    def run(self, max_windows: int | None = None) -> SimulationResult:
        rec = self.recording
        n_windows = rec.n_samples // self.window_samples
        if max_windows is not None:
            n_windows = min(n_windows, max_windows)
        window_ms = self._window_ms()

        stores = [RecentHashStore(self.horizon_ms) for _ in range(rec.n_nodes)]
        checker = CollisionChecker(self.lsh.config.min_matching)
        result = SimulationResult(
            detections={node: [] for node in range(rec.n_nodes)}
        )
        # colliding pairs, (w, src, dst, n_collisions) and their two
        # windows, scored in one DTW call after the loop: nothing in the
        # loop reads a cost
        exchanges: list[tuple[int, int, int, int]] = []
        src_windows: list[np.ndarray] = []
        dst_windows: list[np.ndarray] = []

        for w in range(n_windows):
            start = w * self.window_samples
            now_ms = (w + 1) * window_ms
            windows = rec.data[:, :, start : start + self.window_samples]
            # the fault plan is scheduled in TDMA rounds; one window = one round
            alive = [
                self.fault_plan is None or self.fault_plan.node_alive(n, w)
                for n in range(rec.n_nodes)
            ]
            connected = [
                alive[n]
                and (self.fault_plan is None or self.fault_plan.radio_ok(n, w))
                for n in range(rec.n_nodes)
            ]
            result.node_windows_total += rec.n_nodes
            result.node_windows_skipped += rec.n_nodes - sum(alive)

            # 1. every live node hashes and stores its window (always-on);
            # one batch for all live nodes, walked in node then electrode
            # order so the hash-error draws keep their sequence
            live = [node for node in range(rec.n_nodes) if alive[node]]
            hashed = iter(
                self.lsh.hash_windows(
                    windows[live].reshape(-1, windows.shape[-1])
                ).tolist()
            )
            node_hashes: list[list[tuple[int, ...]]] = []
            for node in range(rec.n_nodes):
                if not alive[node]:
                    node_hashes.append([])
                    continue
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
                stores[node].evict_before(now_ms - 4 * self.horizon_ms)
                node_hashes.append(signatures)

            # 2. local detection (cheap proxy: the node's mean channel)
            detecting = []
            for node in range(rec.n_nodes):
                if not alive[node]:
                    continue
                mean_channel = windows[node].mean(axis=0)
                if self.detector.detect_window(mean_channel):
                    detecting.append(node)
                    result.detections[node].append(w)

            # 3. detecting nodes broadcast hashes; receivers collision-check
            for src in detecting:
                result.hash_broadcasts += 1
                if not connected[src]:
                    # radio dark: the round is lost, detection stays local
                    result.hash_rounds_lost += 1
                    continue
                if (
                    self.packet_loss_rate
                    and self._rng.random() < self.packet_loss_rate
                ):
                    result.hash_rounds_lost += 1
                    continue
                for dst in range(rec.n_nodes):
                    if dst == src or not connected[dst]:
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
            np.reshape(src_windows, (-1, self.window_samples)),
            np.reshape(dst_windows, (-1, self.window_samples)),
            self.dtw_band,
        )
        for (w, src, dst, n_collisions), cost in zip(exchanges, costs.tolist()):
            if cost <= self.dtw_threshold:
                result.confirmations.append(
                    PropagationEvent(src, dst, w, cost, n_collisions=n_collisions)
                )
                result.stimulations.append((dst, w))
        return result
