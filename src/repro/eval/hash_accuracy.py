"""Fig. 11: hash-vs-exact comparison errors by distance from threshold.

For each similarity measure we draw window pairs spanning the whole
similar...dissimilar range (lagged/attenuated twins, unrelated windows,
and ambiguous mixtures of synthetic iEEG windows), set a clinician-style
threshold between the correlated and uncorrelated populations, and
compare the hash match decision against the exact decision.  Errors are
binned by the pair's distance from the threshold (as a percentage of the
class separation); the paper reports total error < 8.5 % with errors
concentrated near the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datasets.synthetic_ieeg import generate_ieeg
from repro.hashing.lsh import LSHFamily
from repro.similarity.measures import get_measure
from repro.units import WINDOW_SAMPLES

#: Bin edges on the distance-from-threshold axis (%), paper Fig. 11.
BIN_EDGES_PCT = np.arange(-70.0, 75.0, 10.0)


@dataclass
class HashAccuracyResult:
    """Binned errors for one measure."""

    measure: str
    bin_centers_pct: np.ndarray
    error_pct: np.ndarray
    total_error_pct: float
    false_positive_share: float


def _window_pool(n_windows: int, seed: int) -> np.ndarray:
    """Mixed seizure/background windows from the synthetic recording."""
    recording = generate_ieeg(
        n_nodes=2, n_electrodes=4, duration_s=max(1.0, n_windows / 250),
        n_seizures=2, seizure_duration_s=0.25, seed=seed,
    )
    flat = recording.data.reshape(-1, recording.n_samples)
    windows = []
    rng = np.random.default_rng(seed)
    n_per_channel = recording.n_samples // WINDOW_SAMPLES
    for _ in range(n_windows):
        channel = int(rng.integers(flat.shape[0]))
        w = int(rng.integers(n_per_channel))
        windows.append(flat[channel, w * WINDOW_SAMPLES:(w + 1) * WINDOW_SAMPLES])
    return np.stack(windows)


#: Pair class labels.
SIMILAR, DISSIMILAR, BOUNDARY = 0, 1, 2


@dataclass
class PairSet:
    """Window pairs plus their construction class."""

    pairs: list[tuple[np.ndarray, np.ndarray]]
    labels: np.ndarray  # SIMILAR / DISSIMILAR / BOUNDARY

    def __len__(self) -> int:
        return len(self.pairs)


def make_pairs(n_pairs: int = 400, seed: int = 0) -> PairSet:
    """Window pairs mirroring the physics of seizure propagation.

    * *Similar* pairs: the same waveform seen at a second site — a small
      time lag, amplitude attenuation, and sensor noise (what DTW and the
      hashes must recognise as correlated).
    * *Dissimilar* pairs: unrelated windows from the pool.
    * *Boundary* pairs: partial mixtures, deliberately sitting near any
      sensible decision threshold — where hash errors are expected to
      concentrate (paper §6.5).
    """
    rng = np.random.default_rng(seed)
    pool = _window_pool(max(64, n_pairs // 4), seed)
    pairs: list[tuple[np.ndarray, np.ndarray]] = []
    labels = np.empty(n_pairs, dtype=int)
    for i in range(n_pairs):
        a = pool[int(rng.integers(pool.shape[0]))]
        other = pool[int(rng.integers(pool.shape[0]))]
        mode = i % 20
        noise = a.std() * rng.standard_normal(a.shape[0])
        if mode < 9:  # correlated: lag + attenuation + noise
            shift = int(rng.integers(0, 9))
            gain = rng.uniform(0.7, 1.0)
            b = gain * np.roll(a, shift) + 0.02 * noise
            labels[i] = SIMILAR
        elif mode < 19:  # unrelated
            b = other + 0.02 * noise
            labels[i] = DISSIMILAR
        else:  # ambiguous mixture
            alpha = rng.uniform(0.35, 0.65)
            b = (1 - alpha) * a + alpha * other + 0.05 * noise
            labels[i] = BOUNDARY
        pairs.append((a, b))
    return PairSet(pairs, labels)


def hash_accuracy(
    measure_name: str,
    n_pairs: int = 400,
    seed: int = 0,
) -> HashAccuracyResult:
    """Run the Fig. 11 experiment for one measure."""
    measure = get_measure(measure_name)
    family = LSHFamily.for_measure(measure_name)
    pair_set = make_pairs(n_pairs, seed)
    pairs = pair_set.pairs

    values = np.array([measure(a, b) for a, b in pairs])
    threshold, separation = pick_threshold(values, pair_set.labels)
    # distance from threshold as a percentage of the correlated-vs-
    # uncorrelated class separation, positive on the similar side —
    # distance measures compress the dissimilar range, so normalising by
    # |threshold| alone would stretch one side of the axis
    sign = 1.0 if measure.higher_is_similar else -1.0
    margins = sign * (values - threshold) / separation * 100.0
    exact = measure.similar(values, threshold)
    hashed = np.array(
        [
            family.matches(sig_a, sig_b)
            for sig_a, sig_b in zip(*hash_pairs(family, pairs))
        ],
        dtype=bool,
    )
    wrong = exact != hashed

    centers = (BIN_EDGES_PCT[:-1] + BIN_EDGES_PCT[1:]) / 2
    error_pct = np.zeros(centers.shape[0])
    clipped = np.clip(margins, BIN_EDGES_PCT[0], BIN_EDGES_PCT[-1] - 1e-9)
    for i in range(centers.shape[0]):
        mask = (clipped >= BIN_EDGES_PCT[i]) & (clipped < BIN_EDGES_PCT[i + 1])
        if mask.any():
            # errors in this bin as a share of all pairs (area = total)
            error_pct[i] = 100.0 * wrong[mask].sum() / len(pairs)

    false_positives = (~exact & hashed).sum()
    total_wrong = wrong.sum()
    return HashAccuracyResult(
        measure=measure_name,
        bin_centers_pct=centers,
        error_pct=error_pct,
        total_error_pct=100.0 * total_wrong / len(pairs),
        false_positive_share=(
            false_positives / total_wrong if total_wrong else 0.0
        ),
    )


def hash_pairs(
    family: LSHFamily, pairs: list[tuple[np.ndarray, np.ndarray]]
) -> tuple[list[list[int]], list[list[int]]]:
    """Signatures of every pair's ``a`` window and ``b`` window, one
    :meth:`~repro.hashing.lsh.LSHFamily.hash_windows` call per side."""
    firsts, seconds = zip(*pairs)
    return (
        family.hash_windows(np.stack(firsts)).tolist(),
        family.hash_windows(np.stack(seconds)).tolist(),
    )


def pick_threshold(
    values: np.ndarray, labels: np.ndarray, position: float = 0.3
) -> tuple[float, float]:
    """The clinician-style threshold, plus the class separation.

    The paper "sets a similarity threshold" per measure; a practitioner
    calibrating on annotated data places it between the correlated and
    uncorrelated populations, biased toward the correlated side
    (``position`` of the way across) so that only confidently-correlated
    pairs count as matches.

    Returns:
        (threshold, |dissimilar median - similar median|).
    """
    similar_median = float(np.median(values[labels == SIMILAR]))
    dissimilar_median = float(np.median(values[labels == DISSIMILAR]))
    threshold = similar_median + position * (dissimilar_median - similar_median)
    return threshold, abs(dissimilar_median - similar_median)


def fig11(n_pairs: int = 400, seed: int = 0
          ) -> dict[str, HashAccuracyResult]:
    """All four measures."""
    return {
        name: hash_accuracy(name, n_pairs, seed)
        for name in ("xcor", "emd", "dtw", "euclidean")
    }
