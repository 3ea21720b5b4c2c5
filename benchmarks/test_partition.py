"""Partition-tolerant coordination: the split-brain storm's invariants.

The quorum/epoch stack promises that a radio fabric torn into
asymmetric link-level partitions can never produce two coordinators:
elections are gated on a strict-majority quorum in the elector's *own*
belief view, installs bump a monotonic epoch, and the fence rejects
every checkpoint or query stamped with a stale epoch.  This benchmark
runs the canonical :func:`~repro.eval.chaos.run_partition_storm` — the
seeded :data:`~repro.eval.chaos.PARTITION` storm against the seven-node
:func:`~repro.eval.chaos.partition_config` fleet — and records the
serving row plus the coordination audit to ``BENCH_partition.json`` at
the repo root.

All numbers are **simulated milliseconds** — deterministic per seed, so
the gates are exact, not statistical:

* at most one coordinator writes accepted checkpoints in any round;
* accepted epochs are monotonic and no query seq is broadcast twice;
* zero stale-epoch writes slip past the fence, and the fence is
  actually exercised (the storm deposes a coordinator that keeps
  writing from the minority side);
* the majority side keeps availability >= 95%;
* the whole storm is byte-identical across repeat runs and with a live
  telemetry handle attached.
"""

from __future__ import annotations

import json
import pathlib

from repro.eval.chaos import (
    ELECTRODES,
    OFFERED_QPS,
    PARTITION_MIN_AVAILABILITY,
    partition_config,
    run_partition_storm,
)
from repro.telemetry import Telemetry

BENCH_PATH = (
    pathlib.Path(__file__).resolve().parent.parent / "BENCH_partition.json"
)

SEED = 0


def test_partition_storm(report):
    storm = run_partition_storm(partition_config(seed=SEED))

    # Determinism: repeat run and live-telemetry run must agree byte
    # for byte on the response logs and on every audited invariant.
    again = run_partition_storm(partition_config(seed=SEED))
    live = run_partition_storm(partition_config(seed=SEED), Telemetry())
    for other in (again, live):
        assert (
            storm.result.report.response_log
            == other.result.report.response_log
        )
        assert storm.result.breaker_transitions == other.result.breaker_transitions
        assert storm.invariants == other.invariants
        assert storm.row() == other.row()

    config = storm.config
    inv = storm.invariants
    doc = {
        "workload": (
            f"{config.n_requests} mixed Q1/Q2/Q3 requests at "
            f"{OFFERED_QPS:.0f} QPS, open loop, seed {SEED}, "
            f"{config.n_nodes}-node fleet (quorum {config.n_nodes // 2 + 1})"
            f" x {ELECTRODES} electrodes x {config.n_windows} windows"
        ),
        "units": "simulated milliseconds (deterministic per seed)",
        "storm": (
            "4 asymmetric link-level partitions + 2 rebooting crashes "
            "+ 2 radio outages over 64 TDMA rounds"
        ),
        "gates": storm.gates(),
        "partition": storm.row(),
        "determinism": "repeat + live-telemetry runs byte-identical",
    }
    BENCH_PATH.write_text(json.dumps(doc, indent=2) + "\n")

    lines = storm.table()
    lines.append(f"written to {BENCH_PATH.name}")
    report("Partition storm: coordination under split brain", lines)

    # The split-brain gates, asserted hard (not just reported).
    assert inv.max_coordinators_per_round == 1, inv
    assert inv.epochs_monotonic, inv
    assert inv.duplicate_query_seqs == 0, inv
    assert inv.fencing_accepted_stale == 0, inv
    assert inv.blind_fallbacks == 0, inv
    # The storm must actually exercise the machinery it gates: a
    # deposed coordinator kept writing (and was fenced), epochs moved,
    # a stepdown parked the fleet on cache-only, and healed claimants
    # reconciled — gates over a storm where nothing happened gate
    # nothing.
    assert inv.fencing_rejected > 0, inv
    assert inv.epoch > 1, inv
    assert inv.failovers > 0, inv
    assert inv.stepdowns > 0, inv
    assert inv.reconciliations > 0, inv
    assert (
        storm.result.report.availability >= PARTITION_MIN_AVAILABILITY
    ), storm.result.row()
    assert storm.passed, storm.gate_failures()
