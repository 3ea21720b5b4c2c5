"""Fabric quickstart: many patient fleets behind one tenant-aware plane.

Builds a four-fleet fabric, routes a tenant to its fleet through the
consistent-hash shard map, runs one tenant query on that fleet, then a
population query across every fleet with node-weighted coverage — the
README's fabric snippet, end to end.

Run:  python examples/fabric_quickstart.py
"""

from repro.api import build_fabric, run_fleet_query, run_population_query


def main() -> None:
    fabric = build_fabric(n_fleets=4, nodes_per_fleet=4, seed=0)
    print(f"tenant t03 routes to fleet {fabric.fleet_for('t03')} "
          f"of {len(fabric.shards)}")

    response = run_fleet_query(fabric, "t03", "q1")
    print(f"t03 Q1 on its fleet: coverage {response.coverage:.3f}, "
          f"latency {response.latency_ms:.3f} ms")

    population = run_population_query(
        fabric, "q2", template=fabric.shards[0].templates[0],
        min_coverage=0.9,
    )
    print(f"population Q2 over {population.n_fleets} fleets: "
          f"coverage {population.coverage:.3f}, "
          f"latency {population.latency_ms:.3f} ms, "
          f"SLA met {population.sla_met}")


if __name__ == "__main__":
    main()
