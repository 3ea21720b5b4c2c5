"""Throughput experiments: Fig. 8a/8b/8c and the §6.2 scalar curves.

Every function returns plain dicts of series so the benchmarks can print
the same rows the paper plots.
"""

from __future__ import annotations

from repro.core.architectures import fig8a_table
from repro.network.tdma import TDMAConfig
from repro.scheduler.ilp import max_throughput_mbps
from repro.scheduler.model import (
    dtw_similarity_task,
    hash_similarity_task,
    mi_kf_task,
    mi_nn_task,
    mi_svm_task,
    seizure_detection_task,
    spike_sorting_task,
)
from repro.telemetry import NULL_TELEMETRY, TelemetryLike

#: Node counts on the Fig. 8b/8c axes.
NODE_COUNTS = (1, 2, 4, 8, 16, 32, 64)

#: Power limits on the Fig. 8b/8c axes (mW).
POWER_LIMITS_MW = (6.0, 9.0, 12.0, 15.0)


def fig8a(n_nodes: int = 11, power_mw: float = 15.0
          ) -> dict[str, dict[str, float]]:
    """Fig. 8a: design -> task -> max aggregate Mbps at 11 nodes."""
    return fig8a_table(n_nodes, power_mw)


def _sweep(task_factory, tdma: TDMAConfig | None = None,
           node_counts=NODE_COUNTS, power_limits=POWER_LIMITS_MW,
           telemetry: TelemetryLike = NULL_TELEMETRY
           ) -> dict[float, dict[int, float]]:
    """power -> nodes -> Mbps for one task."""
    surface: dict[float, dict[int, float]] = {}
    for power in power_limits:
        row = {}
        for n in node_counts:
            task = task_factory()
            row[n] = max_throughput_mbps(task, n, power, tdma=tdma,
                                         telemetry=telemetry)
        surface[power] = row
    return surface


def fig8b(tdma: TDMAConfig | None = None, node_counts=NODE_COUNTS,
          power_limits=POWER_LIMITS_MW,
          telemetry: TelemetryLike = NULL_TELEMETRY
          ) -> dict[str, dict[float, dict[int, float]]]:
    """Fig. 8b: the four signal-similarity surfaces."""
    return {
        "DTW All-All": _sweep(lambda: dtw_similarity_task("all_all"), tdma,
                              node_counts, power_limits, telemetry),
        "DTW One-All": _sweep(lambda: dtw_similarity_task("one_all"), tdma,
                              node_counts, power_limits, telemetry),
        "Hash All-All": _sweep(lambda: hash_similarity_task("all_all"), tdma,
                               node_counts, power_limits, telemetry),
        "Hash One-All": _sweep(lambda: hash_similarity_task("one_all"), tdma,
                               node_counts, power_limits, telemetry),
    }


def fig8c(node_counts=NODE_COUNTS, power_limits=POWER_LIMITS_MW,
          telemetry: TelemetryLike = NULL_TELEMETRY
          ) -> dict[str, dict[float, dict[int, float]]]:
    """Fig. 8c: the three movement-intent surfaces."""
    return {
        "MI SVM": _sweep(mi_svm_task, None, node_counts, power_limits,
                         telemetry),
        "MI NN": _sweep(mi_nn_task, None, node_counts, power_limits,
                        telemetry),
        "MI KF": _sweep(mi_kf_task, None, node_counts, power_limits,
                        telemetry),
    }


def sec62_local_tasks(power_limits=(15.0, 12.0, 9.0, 6.0),
                      telemetry: TelemetryLike = NULL_TELEMETRY
                      ) -> dict[str, dict[float, float]]:
    """§6.2 scalars: per-node detection / sorting throughput vs power.

    Paper: detection 79 -> 46 Mbps (quadratic fall), sorting 118 -> 38.4
    Mbps (linear fall) from 15 to 6 mW.
    """
    out: dict[str, dict[float, float]] = {"seizure_detection": {},
                                          "spike_sorting": {}}
    for p in power_limits:
        out["seizure_detection"][p] = max_throughput_mbps(
            seizure_detection_task(), 1, p, telemetry=telemetry
        )
        out["spike_sorting"][p] = max_throughput_mbps(
            spike_sorting_task(), 1, p, telemetry=telemetry
        )
    return out
