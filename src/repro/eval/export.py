"""CSV export of every figure's series (for plotting outside Python).

``python -m repro export --out results/`` writes one CSV per table and
figure, mirroring exactly what the benchmarks print.
"""

from __future__ import annotations

import csv
import pathlib
from typing import Callable


def _write(path: pathlib.Path, header: list[str], rows: list[list]) -> None:
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def export_fig8a(out: pathlib.Path) -> None:
    from repro.core.architectures import DESIGNS, TASKS
    from repro.eval.throughput import fig8a

    grid = fig8a()
    rows = [
        [design] + [grid[design][task] for task in TASKS]
        for design in DESIGNS
    ]
    _write(out / "fig8a.csv", ["design", *TASKS], rows)


def export_fig8b(out: pathlib.Path) -> None:
    from repro.eval.throughput import fig8b

    rows = []
    for method, surface in fig8b().items():
        for power, series in surface.items():
            for nodes, mbps in series.items():
                rows.append([method, power, nodes, mbps])
    _write(out / "fig8b.csv", ["method", "power_mw", "nodes", "mbps"], rows)


def export_fig8c(out: pathlib.Path) -> None:
    from repro.eval.throughput import fig8c

    rows = []
    for app, surface in fig8c().items():
        for power, series in surface.items():
            for nodes, mbps in series.items():
                rows.append([app, power, nodes, mbps])
    _write(out / "fig8c.csv", ["app", "power_mw", "nodes", "mbps"], rows)


def export_fig9(out: pathlib.Path) -> None:
    from repro.eval.application import fig9a, fig9b

    rows = [
        [weights, nodes, mbps]
        for weights, series in fig9a().items()
        for nodes, mbps in series.items()
    ]
    _write(out / "fig9a.csv", ["weights", "nodes", "weighted_mbps"], rows)
    rows = [
        [decoder, nodes, rate]
        for decoder, series in fig9b().items()
        for nodes, rate in series.items()
    ]
    _write(out / "fig9b.csv", ["decoder", "nodes", "intents_per_s"], rows)


def export_fig10(out: pathlib.Path) -> None:
    from repro.eval.queries import fig10

    rows = [
        [query, time_range, fraction, qps]
        for query, cells in fig10().items()
        for (time_range, fraction), qps in cells.items()
    ]
    _write(out / "fig10.csv",
           ["query", "time_range_ms", "match_fraction", "qps"], rows)


def export_fig11(out: pathlib.Path) -> None:
    from repro.eval.hash_accuracy import fig11

    rows = []
    for measure, result in fig11(n_pairs=400).items():
        for center, error in zip(result.bin_centers_pct, result.error_pct):
            rows.append([measure, float(center), float(error),
                         result.total_error_pct])
    _write(out / "fig11.csv",
           ["measure", "margin_pct", "error_pct", "total_error_pct"], rows)


def export_fig12(out: pathlib.Path) -> None:
    from repro.eval.network_errors import fig12

    rows = [
        [ber, r.hash_packet_error_pct, r.signal_packet_error_pct,
         r.dtw_failure_pct]
        for ber, r in fig12(n_packets=400).items()
    ]
    _write(out / "fig12.csv",
           ["ber", "hash_err_pct", "signal_err_pct", "dtw_fail_pct"], rows)


def export_fig13(out: pathlib.Path) -> None:
    from repro.eval.radio_dse import fig13

    rows = [
        [radio, app, value]
        for radio, series in fig13(n_nodes=11).items()
        for app, value in series.items()
    ]
    _write(out / "fig13.csv", ["radio", "app", "normalised"], rows)


def export_fig14(out: pathlib.Path) -> None:
    from repro.eval.hash_params import fig14

    rows = []
    for measure, result in fig14(n_pairs=240).items():
        for (window, ngram), tpr in result.tpr.items():
            rows.append([
                measure, window, ngram, tpr,
                int((window, ngram) == result.best),
                int((window, ngram) in result.near_best),
            ])
    _write(out / "fig14.csv",
           ["measure", "window", "ngram", "tpr", "best", "near_best"], rows)


def export_fig15(out: pathlib.Path) -> None:
    from repro.eval.delay import fig15

    result = fig15(n_reps=500)
    rows = [
        ["encoding", rate, stats.mean_ms, stats.max_ms]
        for rate, stats in result.encoding.items()
    ] + [
        ["network", ber, stats.mean_ms, stats.max_ms]
        for ber, stats in result.network.items()
    ]
    _write(out / "fig15.csv",
           ["sweep", "x", "mean_delay_ms", "max_delay_ms"], rows)


#: Everything, in paper order.
EXPORTERS: dict[str, Callable[[pathlib.Path], None]] = {
    "fig8a": export_fig8a,
    "fig8b": export_fig8b,
    "fig8c": export_fig8c,
    "fig9": export_fig9,
    "fig10": export_fig10,
    "fig11": export_fig11,
    "fig12": export_fig12,
    "fig13": export_fig13,
    "fig14": export_fig14,
    "fig15": export_fig15,
}


def export_all(out_dir: str | pathlib.Path) -> list[pathlib.Path]:
    """Write every figure's CSV into ``out_dir``; returns the paths."""
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for exporter in EXPORTERS.values():
        exporter(out)
    return sorted(out.glob("*.csv"))
