"""The four benchmark workloads: seeded inputs, one session, its digest.

A *session* is one seeded unit of simulator work.  Each workload has:

* ``prepare(seed)`` — builds the session's inputs; runs before the timer;
* ``run(inputs)`` — the timed simulator work;
* ``summarize(outputs)`` — ``(items, record)``: the simulated work done
  (windows stored, requests answered, figure points) and a canonical,
  JSON-serialisable record of everything the session produced, whose
  SHA-256 is the session digest checked against ``expected/``.

Entry points are called through their modules (``chaos.run_storm``), so
the layer tracer's wrappers are the ones that run when it is installed.

A run with seed ``S`` times the sessions ``S, S+1, ...``; how many
depends only on the workload and the run length (:func:`session_seeds`),
never on how fast the host or the program is, so two runs of one seed
measure the same content.  Session seeds below :data:`GOLDEN_SEEDS` have
a committed golden digest; ``child.py`` checks the others by running them
again under the tracer.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import repro.api as api
import repro.eval.application as application
import repro.eval.chaos as chaos
import repro.eval.resilience as resilience
import repro.eval.throughput as throughput
import repro.fabric.loadgen as fabric_loadgen
from repro.fabric import FabricConfig, FabricLoadConfig
from repro.telemetry import Telemetry
from repro.units import WINDOW_SAMPLES

#: sessions per run at least: 40 leave ten sessions beyond the 75th
#: percentile that ``session_s_p75`` reports
MIN_SESSIONS = 40
#: session seeds ``0 .. GOLDEN_SEEDS-1`` have committed golden digests
GOLDEN_SEEDS = 160
#: the untimed warm-up session; one fixed seed keeps set-up time
#: independent of the run's seed
WARMUP_SEED = 0

EXPECTED_PATH = Path(__file__).resolve().parent / "expected" / "digests.json"

#: ingest shape: 8 implants x 16 electrodes x 4 windows = 512 windows
INGEST_NODES, INGEST_ELECTRODES, INGEST_WINDOWS = 8, 16, 4
#: serve shape: 2 fleets of 4 implants x 4 electrodes, 4 tenants x 8 requests
SERVE_FLEETS, SERVE_ELECTRODES, SERVE_TENANTS, SERVE_REQUESTS = 2, 4, 4, 8
#: chaos shape: both storms at 3 windows per electrode and 40 requests
CHAOS_WINDOWS, CHAOS_REQUESTS = 3, 40
#: packets per point of the sweep's resilience curve
SWEEP_PACKETS = 200


# -- canonical digests -----------------------------------------------------------


def canonical(value):
    """A JSON-ready copy with floats at 6 significant digits.

    Rounding keeps digests stable against last-digit solver or BLAS
    differences; dict keys become strings so float keys (BERs, power
    limits) serialise the same way everywhere.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        value = dataclasses.asdict(value)
    if isinstance(value, dict):
        return {_key(k): canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(f"{float(value):.6g}")
    if isinstance(value, str):
        return value
    raise TypeError(f"cannot canonicalise {type(value).__name__}")


def _key(key) -> str:
    if isinstance(key, (float, np.floating)):
        return f"{float(key):.6g}"
    return str(key)


def digest(record) -> str:
    """SHA-256 of a record's canonical JSON."""
    text = json.dumps(canonical(record), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def load_expected() -> dict[str, list[str]]:
    """Committed golden digests: workload -> one per seed from 0."""
    if not EXPECTED_PATH.exists():
        return {}
    return json.loads(EXPECTED_PATH.read_text())


# -- the workloads ---------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    prepare: Callable[[int], object]
    run: Callable[[object], object]
    summarize: Callable[[object], tuple[int, dict]]
    #: host seconds of one session on the baseline host (README.md)
    session_s: float


def session_seeds(workload: Workload, run_seed: int, seconds: float) -> range:
    """The session seeds one run times: ``run_seed`` onwards.

    The count fills ``seconds`` at the baseline host's session time, and
    is at least :data:`MIN_SESSIONS`.
    """
    count = max(MIN_SESSIONS, round(seconds / workload.session_s))
    return range(run_seed, run_seed + count)


def _ingest_prepare(seed: int):
    rng = np.random.default_rng(seed)
    shape = (INGEST_WINDOWS, INGEST_NODES, INGEST_ELECTRODES, WINDOW_SAMPLES)
    return seed, (rng.standard_normal(shape).cumsum(axis=-1) * 300).round()


def _ingest_run(inputs):
    seed, windows = inputs
    system = api.build_system(
        n_nodes=INGEST_NODES, electrodes_per_node=INGEST_ELECTRODES, seed=seed
    )
    signatures = [system.ingest(batch) for batch in windows]
    return system, signatures


def _ingest_summarize(outputs):
    system, signatures = outputs
    items = sum(len(node.storage.stored_windows()) for node in system.nodes)
    return items, {
        "state": [node.storage.state_digest() for node in system.nodes],
        "signatures": signatures,
    }


def _serve_prepare(seed: int):
    return (
        FabricConfig(n_fleets=SERVE_FLEETS, electrodes=SERVE_ELECTRODES,
                     seed=seed),
        FabricLoadConfig(n_tenants=SERVE_TENANTS,
                         requests_per_tenant=SERVE_REQUESTS, seed=seed),
    )


def _serve_run(inputs):
    config, load = inputs
    fabric, report = fabric_loadgen.fabric_session(config=config, load=load)
    return report, api.run_population_query(fabric, "q3")


def _serve_summarize(outputs):
    report, population = outputs
    answered = sum(answer.ok for answer in population.answers)
    return report.completed + answered, {
        "log": report.combined_log(),
        "population": population.log_line(),
    }


def _chaos_prepare(seed: int):
    shape = {"n_windows": CHAOS_WINDOWS, "n_requests": CHAOS_REQUESTS}
    return (
        chaos.ChaosConfig(seed=seed, **shape),
        dataclasses.replace(chaos.partition_config(seed), **shape),
    )


def _chaos_run(inputs):
    config, partition = inputs
    storm = chaos.run_storm(chaos.MODERATE, config, Telemetry())
    split = chaos.run_partition_storm(partition, Telemetry())
    return storm, split


def _chaos_summarize(outputs):
    storm, split = outputs
    return storm.report.completed + split.result.report.completed, {
        "storm_log": storm.report.response_log,
        "partition_log": split.result.report.response_log,
        "invariants": split.invariants.row(),
        "alerts": [storm.health["alerts"], split.result.health["alerts"]],
    }


def _sweep_run(seed: int):
    return (
        application.fig9a(),
        throughput.fig8b(),
        resilience.resilience_sweep(n_packets=SWEEP_PACKETS, seed=seed),
    )


def _sweep_summarize(outputs):
    fig9a, fig8b, curve = outputs
    points = (
        sum(len(series) for series in fig9a.values())
        + sum(len(row) for surface in fig8b.values() for row in surface.values())
        + len(curve)
    )
    return points, {"fig9a": fig9a, "fig8b": fig8b, "resilience": curve}


# Why each workload exists is recorded in README.md and BENCHMARK.json.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("ingest", _ingest_prepare, _ingest_run, _ingest_summarize,
                 0.19),
        Workload("serve", _serve_prepare, _serve_run, _serve_summarize, 0.25),
        Workload("chaos", _chaos_prepare, _chaos_run, _chaos_summarize, 0.30),
        Workload("sweep", lambda seed: seed, _sweep_run, _sweep_summarize,
                 0.26),
    )
}
