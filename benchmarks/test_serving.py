"""Serving under load: coalesced vs serial dispatch at three offered rates.

The serving layer promises that micro-batch coalescing turns N
compatible pending queries into one batched scan, so under load the
fleet does per-wave work instead of per-request work.  This benchmark
offers the same seeded open-loop arrival timeline (120 requests) at a
low, a medium, and a high rate, once with coalescing and once serial,
and records the simulated-time latency distribution, shed rate, and
deadline misses to ``BENCH_serving.json`` at the repo root.

All numbers are **simulated milliseconds** — the run is deterministic
for the seed, so the gates are exact, not statistical:

* low offered load must shed nothing and miss no deadlines;
* at the high rate, coalesced mean latency must beat serial by >= 2x;
* coalesced p99 must stay bounded at every rate (the EDF + coalesce
  pair keeps the tail from collapsing with the queue).
"""

from __future__ import annotations

import json
import pathlib

from repro.serving.loadgen import LoadGenConfig, serve_session
from repro.serving.server import ServerConfig

BENCH_PATH = (
    pathlib.Path(__file__).resolve().parent.parent / "BENCH_serving.json"
)

N_REQUESTS = 120
SEED = 0
OFFERED_QPS = (4.0, 12.0, 40.0)

#: serial mean / coalesced mean at the highest offered rate
MIN_COALESCE_SPEEDUP = 2.0
#: coalesced p99 latency bound, every rate (simulated ms)
MAX_COALESCED_P99_MS = 600.0


def _run(offered_qps: float, coalesce: bool):
    load = LoadGenConfig(
        n_requests=N_REQUESTS, offered_qps=offered_qps, seed=SEED
    )
    _, report = serve_session(
        seed=SEED,
        load=load,
        server_config=ServerConfig(coalesce=coalesce),
    )
    return report


def test_serving_under_load(report):
    rows = []
    for qps in OFFERED_QPS:
        coalesced = _run(qps, coalesce=True)
        serial = _run(qps, coalesce=False)
        rows.append(
            {
                "offered_qps": qps,
                "n_offered": coalesced.n_offered,
                "coalesced": {
                    "completed": coalesced.completed,
                    "shed": coalesced.shed,
                    "shed_rate": coalesced.shed_rate,
                    "deadline_misses": coalesced.deadline_misses,
                    "waves": coalesced.waves,
                    "coalesced_requests": coalesced.coalesced_requests,
                    "mean_latency_ms": coalesced.mean_latency_ms,
                    "p50_latency_ms": coalesced.p50_latency_ms,
                    "p99_latency_ms": coalesced.p99_latency_ms,
                    "max_queue_depth": coalesced.max_queue_depth,
                },
                "serial": {
                    "completed": serial.completed,
                    "shed": serial.shed,
                    "shed_rate": serial.shed_rate,
                    "deadline_misses": serial.deadline_misses,
                    "waves": serial.waves,
                    "mean_latency_ms": serial.mean_latency_ms,
                    "p50_latency_ms": serial.p50_latency_ms,
                    "p99_latency_ms": serial.p99_latency_ms,
                    "max_queue_depth": serial.max_queue_depth,
                },
                "mean_latency_speedup": (
                    serial.mean_latency_ms / coalesced.mean_latency_ms
                    if coalesced.mean_latency_ms
                    else 0.0
                ),
            }
        )

    doc = {
        "workload": (
            f"{N_REQUESTS} mixed Q1/Q2/Q3 requests, open loop, seed {SEED}, "
            "4-node fleet x 8 electrodes x 4 windows"
        ),
        "units": "simulated milliseconds (deterministic per seed)",
        "gates": {
            "low_load_shed": 0,
            "high_load_mean_latency_speedup_min": MIN_COALESCE_SPEEDUP,
            "coalesced_p99_max_ms": MAX_COALESCED_P99_MS,
        },
        "loads": rows,
    }
    BENCH_PATH.write_text(json.dumps(doc, indent=2) + "\n")

    lines = [
        f"{'qps':>5s}{'mode':>11s}{'done':>6s}{'shed':>6s}{'miss':>6s}"
        f"{'waves':>7s}{'mean':>9s}{'p50':>9s}{'p99':>9s}{'queue':>7s}"
    ]
    for row in rows:
        for mode in ("coalesced", "serial"):
            r = row[mode]
            lines.append(
                f"{row['offered_qps']:5.0f}{mode:>11s}{r['completed']:6d}"
                f"{r['shed']:6d}{r['deadline_misses']:6d}{r['waves']:7d}"
                f"{r['mean_latency_ms']:7.1f}ms{r['p50_latency_ms']:7.1f}ms"
                f"{r['p99_latency_ms']:7.1f}ms{r['max_queue_depth']:7d}"
            )
        lines.append(
            f"      -> coalesced mean-latency speedup "
            f"{row['mean_latency_speedup']:.2f}x"
        )
    lines.append(f"written to {BENCH_PATH.name}")
    report("Serving under load: coalesced vs serial dispatch", lines)

    low = rows[0]
    assert low["coalesced"]["shed"] == 0, low
    assert low["coalesced"]["deadline_misses"] == 0, low
    assert low["serial"]["shed"] == 0, low

    high = rows[-1]
    assert high["mean_latency_speedup"] >= MIN_COALESCE_SPEEDUP, high

    for row in rows:
        assert row["coalesced"]["p99_latency_ms"] <= MAX_COALESCED_P99_MS, row
