"""Fabric scale-out: population-query latency must be sub-linear in fleets.

A population query scatters one request per fleet *concurrently*, so
its latency is the slowest fleet's answer plus a small gather charge
(``gather_base_ms + gather_per_fleet_ms * n_fleets``), not the sum of
fleet latencies.  This benchmark sweeps 4 / 16 / 64 fleets at the same
per-fleet shape, records scatter-gather latency and coverage to
``BENCH_fabric.json``, and gates:

* 16x the fleets must cost < ``MAX_SCALE_FACTOR``x the population
  latency (sub-linear scaling — a serialised scatter would be ~16x);
* coverage stays 1.0 at every scale (no fleet sheds a quiet scatter);
* the noisy-neighbour isolation gate passes at its defaults, and its
  verdict rides along in the JSON for the CI artifact.

All numbers are **simulated milliseconds** — deterministic per seed, so
the gates are exact, not statistical.
"""

from __future__ import annotations

import json
import pathlib

from repro.apps.queries import QuerySpec
from repro.fabric.fabric import FabricConfig, FleetFabric
from repro.fabric.isolation import run_isolation_gate

BENCH_PATH = (
    pathlib.Path(__file__).resolve().parent.parent / "BENCH_fabric.json"
)

FLEET_COUNTS = (4, 16, 64)
SEED = 0

#: population latency at 64 fleets over latency at 4 fleets (16x fleets)
MAX_SCALE_FACTOR = 4.0


def _population_latency(n_fleets: int) -> dict:
    config = FabricConfig(
        n_fleets=n_fleets,
        nodes_per_fleet=2,
        electrodes=2,
        n_windows=3,
        seed=SEED,
    )
    fabric = FleetFabric(config=config)
    results = [
        fabric.population_query(
            QuerySpec(kind=kind, time_range_ms=110.0, match_fraction=1.0)
        )
        for kind in ("q1", "q3")
    ]
    return {
        "n_fleets": n_fleets,
        "n_nodes": n_fleets * config.nodes_per_fleet,
        "mean_latency_ms": (
            sum(r.latency_ms for r in results) / len(results)
        ),
        "max_latency_ms": max(r.latency_ms for r in results),
        "gather_ms": results[0].gather_ms,
        "coverage": min(r.coverage for r in results),
        "rows": sum(r.n_rows for r in results),
        "shed_fleets": sum(len(r.shed_fleets) for r in results),
    }


def test_fabric_population_scaling(report):
    rows = [_population_latency(n) for n in FLEET_COUNTS]
    scale = rows[-1]["mean_latency_ms"] / rows[0]["mean_latency_ms"]

    isolation = run_isolation_gate()
    doc = {
        "workload": (
            "population Q1+Q3 scatter-gather over 2-node x 2-electrode "
            f"fleets, seed {SEED}"
        ),
        "units": "simulated milliseconds (deterministic per seed)",
        "gates": {
            "latency_scale_64_over_4_max": MAX_SCALE_FACTOR,
            "coverage_min": 1.0,
            "isolation_p99_degradation_max": isolation.p99_tolerance,
        },
        "fleets": rows,
        "latency_scale_64_over_4": scale,
        "isolation": isolation.as_dict(),
    }
    BENCH_PATH.write_text(json.dumps(doc, indent=2) + "\n")

    lines = [
        f"{'fleets':>7s}{'nodes':>7s}{'mean':>10s}{'max':>10s}"
        f"{'gather':>9s}{'coverage':>9s}{'rows':>6s}"
    ]
    for row in rows:
        lines.append(
            f"{row['n_fleets']:7d}{row['n_nodes']:7d}"
            f"{row['mean_latency_ms']:8.1f}ms{row['max_latency_ms']:8.1f}ms"
            f"{row['gather_ms']:7.1f}ms{row['coverage']:9.2f}"
            f"{row['rows']:6d}"
        )
    lines.append(
        f"16x fleets -> {scale:.2f}x population latency "
        f"(gate < {MAX_SCALE_FACTOR:.1f}x)"
    )
    lines.append(
        "isolation gate: "
        f"p99 degradation {isolation.p99_degradation:+.1%}, "
        f"byte-identical {isolation.byte_identical}"
    )
    lines.append(f"written to {BENCH_PATH.name}")
    report("Fabric population-query scaling + tenant isolation", lines)

    for row in rows:
        assert row["coverage"] == 1.0, row
        assert row["shed_fleets"] == 0, row
    assert scale < MAX_SCALE_FACTOR, doc
    assert isolation.passed, isolation.as_dict()
