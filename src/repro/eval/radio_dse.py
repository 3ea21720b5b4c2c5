"""Fig. 13 / Table 3: radio design-space exploration.

Re-evaluates Hash All-All and DTW One-All under the four Table 3 radios
and normalises by the default (Low Power) radio, as the paper plots.
"""

from __future__ import annotations

from repro.network.radio import RADIO_CATALOG
from repro.network.tdma import TDMAConfig
from repro.scheduler.ilp import max_throughput_mbps
from repro.scheduler.model import dtw_similarity_task, hash_similarity_task
from repro.telemetry import NULL_TELEMETRY, TelemetryLike
from repro.units import NODE_POWER_CAP_MW

#: Radio order on the Fig. 13 x-axis.
RADIO_ORDER = ("High Perf", "Low Data Rate", "Low BER", "Low Power")


def radio_throughputs(
    n_nodes: int = 6, power_mw: float = NODE_POWER_CAP_MW,
    telemetry: TelemetryLike = NULL_TELEMETRY,
) -> dict[str, dict[str, float]]:
    """Absolute Mbps per radio: {radio: {app: mbps}}.

    The radio's own power draw comes out of the node budget (the High
    Perf radio "occupies nearly half the available 15 mW budget").
    """
    out: dict[str, dict[str, float]] = {}
    for name in RADIO_ORDER:
        radio = RADIO_CATALOG[name]
        tdma = TDMAConfig(radio=radio)
        budget = power_mw - radio.power_mw
        out[name] = {
            "Hash All-All": max_throughput_mbps(
                hash_similarity_task("all_all"), n_nodes, budget, tdma=tdma,
                telemetry=telemetry,
            ),
            "DTW One-All": max_throughput_mbps(
                dtw_similarity_task("one_all"), n_nodes, budget, tdma=tdma,
                telemetry=telemetry,
            ),
        }
    return out


def fig13(n_nodes: int = 6, power_mw: float = NODE_POWER_CAP_MW,
          telemetry: TelemetryLike = NULL_TELEMETRY
          ) -> dict[str, dict[str, float]]:
    """Fig. 13: throughput normalised to the Low Power radio."""
    absolute = radio_throughputs(n_nodes, power_mw, telemetry=telemetry)
    baseline = absolute["Low Power"]
    return {
        radio: {
            app: (value / baseline[app] if baseline[app] else 0.0)
            for app, value in row.items()
        }
        for radio, row in absolute.items()
    }
