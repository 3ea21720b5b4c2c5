"""Chaos-hardened serving: availability under a three-level fault storm.

The reliability stack (client retries, server-side coverage-SLA
re-execution, per-node circuit breakers, brownout tiers) promises that
the serving layer keeps answering while implants crash, radios go dark,
and NVM pages rot.  This benchmark runs the canonical
:func:`~repro.eval.chaos.chaos_sweep` — the same seeded load through
mild / moderate / severe :class:`~repro.faults.plan.FaultPlan` storms —
and records availability, SLA satisfaction, retry/breaker/brownout
activity, and the latency tail to ``BENCH_chaos.json`` at the repo root.

All numbers are **simulated milliseconds** — deterministic per seed, so
the gates are exact, not statistical:

* mild storm (one crash that reboots): availability >= 99%;
* moderate storm (crashes + outage + correctable bit-rot): every
  coverage-SLA violation is healed by recovery-driven re-execution —
  zero *final* violations;
* severe storm (slow reboots, overlapping outages, uncorrectable rot):
  p99 latency over final answers stays under the documented bound;
* the whole sweep is byte-identical across repeat runs and with a live
  telemetry handle attached (the serving determinism contract extended
  to the chaos path).
"""

from __future__ import annotations

import json
import pathlib

from repro.eval.chaos import (
    ELECTRODES,
    MILD_MIN_AVAILABILITY,
    MIN_COVERAGE,
    MODERATE_MAX_FINAL_SLA_VIOLATIONS,
    OFFERED_QPS,
    SEVERE_P99_BOUND_MS,
    ChaosConfig,
    chaos_sweep,
)
from repro.telemetry import Telemetry

BENCH_PATH = (
    pathlib.Path(__file__).resolve().parent.parent / "BENCH_chaos.json"
)

SEED = 0


def test_chaos_storm_sweep(report):
    config = ChaosConfig(seed=SEED)
    sweep = chaos_sweep(config)

    # Determinism: repeat run and live-telemetry run must agree byte
    # for byte on the response logs and on every derived number.
    again = chaos_sweep(ChaosConfig(seed=SEED))
    live = chaos_sweep(ChaosConfig(seed=SEED), Telemetry())
    for first, second, third in zip(sweep.results, again.results, live.results):
        assert first.report.response_log == second.report.response_log
        assert first.report.response_log == third.report.response_log
        assert first.breaker_transitions == second.breaker_transitions
        assert first.breaker_transitions == third.breaker_transitions
        assert first.row() == second.row() == third.row()

    rows = [result.row() for result in sweep.results]
    doc = {
        "workload": (
            f"{config.n_requests} mixed Q1/Q2/Q3 requests at "
            f"{OFFERED_QPS:.0f} QPS, open loop, seed {SEED}, "
            f"{config.n_nodes}-node fleet x {ELECTRODES} electrodes "
            f"x {config.n_windows} windows, coverage SLA "
            f"{MIN_COVERAGE}"
        ),
        "units": "simulated milliseconds (deterministic per seed)",
        "reliability": (
            "client retries (decorrelated jitter), server-side "
            "coverage-SLA re-execution on recovery, per-node circuit "
            "breakers, brownout tiers 0-3"
        ),
        "gates": sweep.gates(),
        "storms": rows,
        "determinism": "repeat + live-telemetry runs byte-identical",
    }
    BENCH_PATH.write_text(json.dumps(doc, indent=2) + "\n")

    lines = sweep.table()
    lines.append(f"written to {BENCH_PATH.name}")
    report("Chaos sweep: serving through graded fault storms", lines)

    mild = sweep.result("mild").report
    assert mild.availability >= MILD_MIN_AVAILABILITY, rows[0]
    moderate = sweep.result("moderate").report
    assert (
        moderate.sla_violations_final <= MODERATE_MAX_FINAL_SLA_VIOLATIONS
    ), rows[1]
    # The moderate storm must actually exercise the healing machinery —
    # zero violations because nothing went wrong would gate nothing.
    assert moderate.sla_violations_initial > 0, rows[1]
    assert moderate.server_retries > 0, rows[1]
    severe = sweep.result("severe").report
    assert severe.p99_latency_ms <= SEVERE_P99_BOUND_MS, rows[2]
    assert sweep.passed, sweep.gate_failures()
