"""Interactive human-in-the-loop querying (paper §6.4, Fig. 10).

Parses a Trill-style query with the on-device language, runs the three
canonical queries through the stable ``repro.api`` facade — watching the
storage controllers' hash-on-write signature cache answer the Q2 filter —
and prints the Fig. 10 latency/QPS model.

Run:  python examples/interactive_queries.py
"""

import numpy as np

from repro.api import Telemetry, build_system, run_query
from repro.apps.queries import QueryCostModel, QuerySpec, query_data_bytes
from repro.lang.parser import parse_query


def main() -> None:
    # --- the clinician's query, in the supported Trill subset ----------------
    text = ("var seizure_data = stream.window(wsize=4ms)"
            ".select(w => w.seizure_detect(), w[-100ms:100ms])")
    chain = parse_query(text)
    print(f"parsed query '{chain.var_name}': operations {chain.call_names}")

    # --- a two-implant fleet, via the facade ---------------------------------
    telemetry = Telemetry()
    system = build_system(
        n_nodes=2, electrodes_per_node=4, telemetry=telemetry
    )
    rng = np.random.default_rng(0)
    template = rng.normal(size=120).cumsum() * 1000
    for w in range(6):
        windows = rng.normal(size=(2, 4, 120)).cumsum(axis=2) * 1000
        if w == 2:  # plant a template match on node 0, electrode 0
            windows[0, 0] = template + 10 * rng.normal(size=120)
        system.ingest(windows)

    flags = {0: {2, 3}, 1: {4}}
    q1 = run_query(system, "q1", (0, 6), seizure_flags=flags)
    print(f"Q1 (seizure-flagged windows): "
          f"{sorted({(r.node, r.window_index) for r in q1.rows})}")
    q2 = run_query(system, "q2", (0, 6), template=template)
    print(f"Q2 (hash-matched template):   "
          f"{[(r.node, r.window_index) for r in q2.rows]}")
    q3 = run_query(system, "q3", (0, 6))
    print(f"Q3 (everything): {len(q3.rows)} windows")
    hits = telemetry.registry.counter("query.cache_hit")
    misses = telemetry.registry.counter("query.cache_miss")
    print(f"signature cache on the Q2 scan: {hits:.0f} hits, "
          f"{misses:.0f} misses (hashes were computed at ingest)")

    # --- the Fig. 10 cost model ------------------------------------------------
    model = QueryCostModel(n_nodes=11)
    print(f"\nFig. 10 model (11 implants, "
          f"{query_data_bytes(110, 11) / 1e6:.0f} MB per 110 ms):")
    print(f"{'query':>22s}{'latency':>10s}{'QPS':>7s}{'power':>9s}")
    for label, spec in [
        ("Q1 110ms 5%", QuerySpec("q1", 110.0, 0.05)),
        ("Q2 110ms 5% (hash)", QuerySpec("q2", 110.0, 0.05)),
        ("Q2 110ms 5% (DTW)", QuerySpec("q2", 110.0, 0.05, use_hash=False)),
        ("Q1 1s 5%", QuerySpec("q1", 1000.0, 0.05)),
        ("Q3 110ms", QuerySpec("q3", 110.0)),
    ]:
        cost = model.cost(spec)
        print(f"{label:>22s}{cost.latency_ms:9.0f}ms"
              f"{cost.queries_per_second:7.1f}{cost.power_mw:8.2f}mW")
    print("(paper: 9 QPS over 7 MB, 1 QPS over 60 MB, Q3 = 1.21 s;"
          " DTW Q2 needs ~15 mW vs ~3.6 mW hashed)")


if __name__ == "__main__":
    main()
