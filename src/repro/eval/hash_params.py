"""Fig. 14: LSH parameter flexibility (window size x n-gram size).

Sweeps the SSH sketch sub-window and n-gram sizes per measure and scores
each configuration by its true-positive rate at a fixed false-positive
budget — the paper marks the best configuration plus every configuration
within 90 % of its TPR, showing one PE configuration serves several
measures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.eval.hash_accuracy import hash_pairs, make_pairs, pick_threshold
from repro.hashing.lsh import LSHConfig, LSHFamily
from repro.similarity.measures import get_measure

#: Sweep grids (sketch window in samples, n-gram in bits).
WINDOW_GRID = (8, 16, 24, 40, 60, 80, 100, 120)
NGRAM_GRID = (1, 2, 3, 4, 5, 6)

#: Configurations within this fraction of the best TPR count as "good".
NEAR_BEST_FRACTION = 0.90


@dataclass
class ParamSweepResult:
    """One measure's sweep."""

    measure: str
    tpr: dict[tuple[int, int], float]  # (window, ngram) -> TPR
    best: tuple[int, int]
    near_best: list[tuple[int, int]]

    @property
    def best_tpr(self) -> float:
        return self.tpr[self.best]


def sweep_measure(
    measure_name: str,
    n_pairs: int = 300,
    seed: int = 0,
) -> ParamSweepResult:
    """Sweep (window, ngram) for one measure; returns TPR landscape."""
    measure = get_measure(measure_name)
    pair_set = make_pairs(n_pairs, seed)
    pairs = pair_set.pairs
    values = np.array([measure(a, b) for a, b in pairs])
    threshold, _ = pick_threshold(values, pair_set.labels)
    similar = measure.similar(values, threshold)

    tpr: dict[tuple[int, int], float] = {}
    for window in WINDOW_GRID:
        for ngram in NGRAM_GRID:
            config = LSHConfig(
                measure=measure_name if measure_name != "emd" else "dtw",
                sketch_window=window,
                ngram=ngram,
                normalise=(measure_name == "xcor"),
            )
            family = LSHFamily(config)
            matches = np.array(
                [
                    family.matches(sig_a, sig_b)
                    for sig_a, sig_b in zip(*hash_pairs(family, pairs))
                ],
                dtype=bool,
            )
            positives = similar.sum()
            false_alarm = (matches & ~similar).sum() / max(1, (~similar).sum())
            raw_tpr = (matches & similar).sum() / max(1, positives)
            # penalise hashes that match everything: discount by FPR
            tpr[(window, ngram)] = raw_tpr * (1.0 - 0.5 * false_alarm)

    best = max(tpr, key=tpr.get)  # type: ignore[arg-type]
    cutoff = NEAR_BEST_FRACTION * tpr[best]
    near = [key for key, value in tpr.items() if value >= cutoff]
    return ParamSweepResult(measure_name, tpr, best, sorted(near))


def fig14(n_pairs: int = 300, seed: int = 0
          ) -> dict[str, ParamSweepResult]:
    """The three sketch-based measures (EMD has no window/n-gram)."""
    return {
        name: sweep_measure(name, n_pairs, seed)
        for name in ("xcor", "dtw", "euclidean")
    }


def shared_configs(results: dict[str, ParamSweepResult]
                   ) -> list[tuple[int, int]]:
    """Configurations near-best for *every* measure — the reuse argument."""
    sets = [set(r.near_best) for r in results.values()]
    if not sets:
        return []
    common = set.intersection(*sets)
    return sorted(common)
