"""Health-engine overhead: instrumented+health vs NULL on a chaos storm.

The health engine samples the registry at every TDMA round, so its cost
rides on top of the telemetry layer's.  The contract is the same 5 %
wall-clock budget the telemetry PR set: the moderate chaos storm — the
workload the health engine was calibrated against, with alerts firing
and incident bundles snapshotting — must run at most 5 % slower with a
live :class:`~repro.telemetry.Telemetry` handle plus an attached
:class:`~repro.telemetry.health.engine.HealthEngine` than with the no-op
:data:`~repro.telemetry.NULL_TELEMETRY` and no health at all.  The
measured numbers land in ``BENCH_health.json`` at the repo root.
"""

from __future__ import annotations

import json
import pathlib
import time

from repro.eval.chaos import MODERATE, ChaosConfig, run_storm
from repro.telemetry import NULL_TELEMETRY, Telemetry

#: Allowed instrumented-plus-health over null wall-clock overhead (percent).
MAX_OVERHEAD_PCT = 5.0

#: Timed repetitions; the minimum is reported (standard noise rejection).
ROUNDS = 7

BENCH_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_health.json"


def _timed_s(telemetry) -> float:
    start = time.perf_counter()
    run_storm(MODERATE, ChaosConfig(), telemetry=telemetry)
    return time.perf_counter() - start


def test_health_overhead_within_budget(report):
    # warm-up: first run pays import and allocator costs for both sides
    run_storm(MODERATE, ChaosConfig())

    # interleave the two sides round by round so machine drift (cache
    # state, CPU contention) lands on both equally, then take minima
    null_s = float("inf")
    health_s = float("inf")
    for _ in range(ROUNDS):
        null_s = min(null_s, _timed_s(NULL_TELEMETRY))
        # run_storm attaches a HealthEngine once telemetry is live
        health_s = min(health_s, _timed_s(Telemetry()))
    overhead_pct = 100.0 * (health_s - null_s) / null_s

    # the instrumented run must also have actually done the health work
    probe = run_storm(MODERATE, ChaosConfig(), telemetry=Telemetry())
    assert probe.health is not None and probe.health["alerts"]

    doc = {
        "workload": "moderate chaos storm (seed 0, health engine attached)",
        "rounds": ROUNDS,
        "null_telemetry_s": null_s,
        "health_instrumented_s": health_s,
        "overhead_pct": overhead_pct,
        "budget_pct": MAX_OVERHEAD_PCT,
        "alerts_fired": len(probe.health["alerts"]),
        "incidents": len(probe.health["incidents"]),
    }
    BENCH_PATH.write_text(json.dumps(doc, indent=2) + "\n")

    report(
        "Health-engine overhead (moderate storm)",
        [
            f"NullTelemetry, no health:  {null_s * 1e3:8.2f} ms (min of {ROUNDS})",
            f"Telemetry + HealthEngine:  {health_s * 1e3:8.2f} ms (min of {ROUNDS})",
            f"overhead:                  {overhead_pct:8.2f} % (budget {MAX_OVERHEAD_PCT}%)",
            f"written to {BENCH_PATH.name}",
        ],
    )

    assert overhead_pct <= MAX_OVERHEAD_PCT
