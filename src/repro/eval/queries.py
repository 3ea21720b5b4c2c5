"""Fig. 10: interactive query throughput over 11 nodes.

The grid is recorded into a :class:`~repro.telemetry.registry.MetricsRegistry`
(gauges ``fig10.qps{query=,range_ms=,fraction=}``, plus latency and
power) and the returned dict is read *back* from the registry, so the
registry is the single source of truth and any telemetry consumer — the
CLI summary table, the JSON/CSV exporters — sees exactly the published
numbers.
"""

from __future__ import annotations

from repro.apps.queries import QueryCostModel, QuerySpec, query_data_bytes
from repro.telemetry.registry import MetricsRegistry

#: The paper's four time ranges (ms) — 7, 24, 42, 60 MB over 11 nodes.
TIME_RANGES_MS = (110.0, 400.0, 700.0, 1000.0)

#: Match fractions evaluated for Q1/Q2.
MATCH_FRACTIONS = (0.05, 0.50, 1.00)

#: The paper's fleet: 11 implants.
N_NODES = 11


def _record_cell(
    registry: MetricsRegistry,
    model: QueryCostModel,
    query: str,
    time_range: float,
    fraction: float,
) -> None:
    cost = model.cost(QuerySpec(query.lower(), time_range, fraction))
    labels = {"query": query, "range_ms": time_range, "fraction": fraction}
    registry.set_gauge("fig10.qps", cost.queries_per_second, **labels)
    registry.set_gauge("fig10.latency_ms", cost.latency_ms, **labels)
    registry.set_gauge("fig10.power_mw", cost.power_mw, **labels)


def fig10() -> dict[str, dict[tuple[float, float], float]]:
    """QPS per query: {query: {(time_range_ms, match_fraction): qps}},
    recorded into a fresh registry and read back from it."""
    registry = MetricsRegistry()
    model = QueryCostModel(n_nodes=N_NODES)
    for time_range in TIME_RANGES_MS:
        for fraction in MATCH_FRACTIONS:
            _record_cell(registry, model, "Q1", time_range, fraction)
            _record_cell(registry, model, "Q2", time_range, fraction)
        _record_cell(registry, model, "Q3", time_range, 1.0)
    out: dict[str, dict[tuple[float, float], float]] = {
        "Q1": {}, "Q2": {}, "Q3": {}
    }
    for labels, qps in registry.series("fig10.qps").items():
        cell = dict(labels)
        out[cell["query"]][
            (float(cell["range_ms"]), float(cell["fraction"]))
        ] = qps
    return out


def q2_hash_vs_dtw() -> dict[str, dict[str, float]]:
    """The §6.4 comparison: Q2 with hashes vs exact DTW (QPS and power),
    over the shortest time range at the lowest match fraction."""
    model = QueryCostModel(n_nodes=N_NODES)
    time_range_ms, match_fraction = TIME_RANGES_MS[0], MATCH_FRACTIONS[0]
    hash_cost = model.cost(QuerySpec("q2", time_range_ms, match_fraction,
                                     use_hash=True))
    dtw_cost = model.cost(QuerySpec("q2", time_range_ms, match_fraction,
                                    use_hash=False))
    return {
        "hash": {"qps": hash_cost.queries_per_second,
                 "power_mw": hash_cost.power_mw},
        "dtw": {"qps": dtw_cost.queries_per_second,
                "power_mw": dtw_cost.power_mw},
    }


def data_sizes_mb() -> dict[float, float]:
    """Query data volumes per time range (the paper's 7/24/42/60 MB)."""
    return {
        t: query_data_bytes(t, N_NODES) / 1e6 for t in TIME_RANGES_MS
    }
