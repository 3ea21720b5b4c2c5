"""Online spike sorting with hash-filtered template matching (Fig. 3c/7).

Sorts three synthetic recordings (mirroring the SpikeForest, MEArec, and
Kilosort profiles) with the exact EMD matcher and the hash-filtered
matcher, and reports accuracy, comparison savings, and the modelled
per-node sorting rate/latency from §6.3.

Run:  python examples/spike_sorting.py
"""

from repro.apps.spike_sorting import (
    SpikeSorter,
    detection_recall,
    sorting_accuracy,
)
from repro.datasets.spikes import generate_spikes
from repro.eval.application import (
    spike_sorting_latency_ms,
    spike_sorting_rate_per_node,
)


def main() -> None:
    print(f"{'dataset':>12s}{'truth':>7s}{'found':>7s}{'recall':>8s}"
          f"{'exact':>8s}{'hash':>8s}{'cmp saved':>11s}")
    for profile in ("spikeforest", "mearec", "kilosort"):
        dataset = generate_spikes(profile, duration_s=4.0, seed=0)
        sorter = SpikeSorter.from_dataset(dataset)
        hashed = sorter.sort(dataset.data, "hash")
        exact = sorter.sort(dataset.data, "exact")
        saved = 1 - hashed.exact_comparisons / max(exact.exact_comparisons, 1)
        print(f"{profile:>12s}{dataset.n_spikes:>7d}{hashed.n_sorted:>7d}"
              f"{detection_recall(dataset, hashed):>8.2f}"
              f"{sorting_accuracy(dataset, exact):>8.2f}"
              f"{sorting_accuracy(dataset, hashed):>8.2f}"
              f"{saved:>11.0%}")

    print("\npaper §6.3 reference: accuracies 82 % (SpikeForest), "
          "91 % (MEArec), 73 % (Kilosort); hash within 5 % of exact")
    print(f"modelled sorting rate at 15 mW: "
          f"{spike_sorting_rate_per_node():.0f} spikes/s/node "
          f"(paper: 12,250)")
    print(f"modelled per-spike latency: {spike_sorting_latency_ms():.2f} ms "
          f"(paper: ~2.5 ms)")


if __name__ == "__main__":
    main()
