"""Query hot path: reference scan vs batched scan, cold and warm.

The batch-first design promises that a Q2 hash fleet scan is answered
(a) in one vectorised pass per node instead of a Python loop per window,
and (b) from the storage controllers' hash-on-write signature cache
without touching the hash kernels at all when the cache is warm.  This
benchmark times the window-at-a-time reference scan in
``tests/query_oracle.py`` (the "scalar" columns), the engine with warm
signature caches, and the same engine after every controller's
signatures are invalidated (the "cold" columns), on Q2 hash scans at
several fleet sizes.  It asserts the returned rows are element-identical
and writes the measured numbers to ``BENCH_query.json`` at the repo root.

Gates: batched-cold must beat scalar by >= 2x at every fleet size, and
the warm cache must beat scalar by >= 5x on the paper's 11-node fleet.
Set ``BENCH_QUERY_SMOKE=1`` to run the 4-node fleet only with the 2x
gate (the CI smoke configuration).  Run it from the repo root with
``PYTHONPATH=src python -m pytest benchmarks/test_query_hotpath.py`` so
that the ``tests`` package is importable.
"""

from __future__ import annotations

import functools
import json
import os
import pathlib
import time

import numpy as np

from repro.apps.queries import QueryEngine, QuerySpec
from repro.hashing.lsh import LSHFamily
from repro.storage.controller import StorageController
from repro.storage.nvm import NVMDevice
from tests.query_oracle import oracle_run

BENCH_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_query.json"

SMOKE = os.environ.get("BENCH_QUERY_SMOKE") == "1"
FLEET_SIZES = (4,) if SMOKE else (4, 11, 32)

N_ELECTRODES = 16
N_WINDOWS = 8
WINDOW_LEN = 120
ROUNDS = 3

#: batched-cold over scalar, every fleet size (the CI smoke gate).
MIN_BATCHED_SPEEDUP = 2.0
#: warm-cache over scalar on the 11-node fleet (the acceptance gate).
MIN_WARM_SPEEDUP_11 = 5.0


def _build_fleet(n_nodes: int, seed: int = 0):
    lsh = LSHFamily.for_measure("dtw")
    rng = np.random.default_rng(seed)
    template = (rng.standard_normal(WINDOW_LEN).cumsum() * 300).round()
    controllers = []
    for node in range(n_nodes):
        controller = StorageController(
            device=NVMDevice(capacity_bytes=16 * 1024 * 1024), lsh=lsh
        )
        for w in range(N_WINDOWS):
            windows = (
                rng.standard_normal((N_ELECTRODES, WINDOW_LEN)).cumsum(axis=1)
                * 300
            ).round()
            if w == 1:  # plant one template match per node
                windows[0] = template + (5 * rng.standard_normal(WINDOW_LEN)).round()
            controller.store_channel_windows(w, windows)
        controllers.append(controller)
    engine = QueryEngine(controllers, lsh, dtw_threshold=20_000.0)
    return engine, template


def _time_run(run, spec, template) -> tuple[float, list]:
    best, rows = float("inf"), None
    for _ in range(ROUNDS):
        start = time.perf_counter()
        result = run(spec, (0, N_WINDOWS), template=template)
        best = min(best, time.perf_counter() - start)
        rows = result.row_keys()
    return best, rows


def test_query_hotpath(report):
    spec = QuerySpec("q2", 110.0)
    results = []
    for n_nodes in FLEET_SIZES:
        engine, template = _build_fleet(n_nodes)

        reference = functools.partial(oracle_run, engine)
        scalar_s, scalar_rows = _time_run(reference, spec, template)
        warm_s, warm_rows = _time_run(engine.run, spec, template)
        for controller in engine.controllers:
            controller.invalidate_signatures()
        cold_s, cold_rows = _time_run(engine.run, spec, template)

        assert cold_rows == scalar_rows
        assert warm_rows == scalar_rows
        results.append(
            {
                "n_nodes": n_nodes,
                "n_windows_scanned": n_nodes * N_ELECTRODES * N_WINDOWS,
                "matches": len(scalar_rows),
                "scalar_s": scalar_s,
                "batched_cold_s": cold_s,
                "batched_warm_s": warm_s,
                "batched_speedup": scalar_s / cold_s,
                "warm_speedup": scalar_s / warm_s,
            }
        )

    doc = {
        "workload": (
            f"Q2 hash fleet scan, {N_ELECTRODES} electrodes x "
            f"{N_WINDOWS} windows of {WINDOW_LEN} samples per node"
        ),
        "rounds": ROUNDS,
        "smoke": SMOKE,
        "gates": {
            "batched_speedup_min": MIN_BATCHED_SPEEDUP,
            "warm_speedup_min_11_nodes": MIN_WARM_SPEEDUP_11,
        },
        "fleets": results,
    }
    BENCH_PATH.write_text(json.dumps(doc, indent=2) + "\n")

    lines = [
        f"{'nodes':>6s}{'windows':>9s}{'scalar':>10s}{'cold':>10s}"
        f"{'warm':>10s}{'cold x':>8s}{'warm x':>8s}"
    ]
    for r in results:
        lines.append(
            f"{r['n_nodes']:6d}{r['n_windows_scanned']:9d}"
            f"{r['scalar_s'] * 1e3:8.1f}ms{r['batched_cold_s'] * 1e3:8.1f}ms"
            f"{r['batched_warm_s'] * 1e3:8.1f}ms"
            f"{r['batched_speedup']:8.1f}{r['warm_speedup']:8.1f}"
        )
    lines.append(f"written to {BENCH_PATH.name}")
    report("Query hot path: reference scan vs batched cold vs warm cache "
           "(Q2 hash)", lines)

    for r in results:
        assert r["batched_speedup"] >= MIN_BATCHED_SPEEDUP, r
        if r["n_nodes"] == 11:
            assert r["warm_speedup"] >= MIN_WARM_SPEEDUP_11, r
