"""Telemetry overhead: instrumented vs NullTelemetry on the fig9a workload.

The PR's observability contract is that instrumentation is effectively
free: the same seeded fig9a scheduler sweep must run at most 5 % slower
wall-clock with a live :class:`~repro.telemetry.Telemetry` handle than
with the no-op :data:`~repro.telemetry.NULL_TELEMETRY`.  The measured
numbers are written to ``BENCH_telemetry.json`` at the repo root.
"""

from __future__ import annotations

import json
import pathlib
import time

from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.telemetry.scenarios import fig9a_scenario

#: Allowed instrumented-over-null wall-clock overhead (percent).
MAX_OVERHEAD_PCT = 5.0

#: Timed repetitions; the minimum is reported (standard noise rejection).
ROUNDS = 7

BENCH_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_telemetry.json"


def _min_wall_s(make_telemetry) -> float:
    best = float("inf")
    for _ in range(ROUNDS):
        telemetry = make_telemetry()
        start = time.perf_counter()
        fig9a_scenario(telemetry, 0)
        best = min(best, time.perf_counter() - start)
    return best


def test_telemetry_overhead_within_budget(report):
    # warm-up: the first sweep pays module imports and first-call
    # caches for both sides
    fig9a_scenario(NULL_TELEMETRY, 0)

    null_s = _min_wall_s(lambda: NULL_TELEMETRY)
    instrumented_s = _min_wall_s(Telemetry)
    overhead_pct = 100.0 * (instrumented_s - null_s) / null_s

    doc = {
        "workload": "fig9a scheduler sweep (24 ILP solves)",
        "rounds": ROUNDS,
        "null_telemetry_s": null_s,
        "instrumented_s": instrumented_s,
        "overhead_pct": overhead_pct,
        "budget_pct": MAX_OVERHEAD_PCT,
    }
    BENCH_PATH.write_text(json.dumps(doc, indent=2) + "\n")

    report(
        "Telemetry overhead (fig9a)",
        [
            f"NullTelemetry: {null_s * 1e3:8.2f} ms (min of {ROUNDS})",
            f"Telemetry:     {instrumented_s * 1e3:8.2f} ms (min of {ROUNDS})",
            f"overhead:      {overhead_pct:8.2f} % (budget {MAX_OVERHEAD_PCT}%)",
            f"written to {BENCH_PATH.name}",
        ],
    )

    assert overhead_pct <= MAX_OVERHEAD_PCT
