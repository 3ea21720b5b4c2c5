"""Canned, seeded scenarios for ``python -m repro trace``.

Each scenario drives a small but complete slice of the system with a
live :class:`~repro.telemetry.Telemetry` handle attached and returns
that handle; the CLI renders the registry as tables and can export the
span tree as a Chrome trace.  Scenarios are deterministic: the same
``seed`` produces byte-identical metrics, spans, and timestamps.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from repro.telemetry import Telemetry

#: BER used by the traced scenarios: high enough that the ARQ visibly
#: retries within a short run, low enough that recovery succeeds.
TRACE_BER = 2e-4


def _traced_system(
    telemetry: Telemetry, n_nodes: int, electrodes: int, seed: int
):
    from repro.core.system import ScaloSystem
    from repro.network.radio import LOW_POWER
    from repro.network.tdma import TDMAConfig

    radio = replace(LOW_POWER, bit_error_rate=TRACE_BER)
    return ScaloSystem(
        n_nodes=n_nodes,
        electrodes_per_node=electrodes,
        tdma=TDMAConfig(radio=radio),
        seed=seed,
        arq=True,
        telemetry=telemetry,
    )


def seizure_scenario(
    telemetry: Telemetry,
    n_nodes: int = 4,
    electrodes: int = 4,
    n_windows: int = 4,
    seed: int = 0,
) -> Telemetry:
    """Seizure-propagation session: ingest, hash exchange, traced query.

    Every node ingests ``n_windows`` windows (storage + hashing metered),
    broadcasts its hash batches over the reliable link (ARQ retries show
    up as spans), checks its neighbours' hashes against its own recent
    store, and finally the fleet answers one distributed Q1 query —
    the full broadcast → lookup → merge round-trip in a single trace.
    """
    from repro.apps.queries import QuerySpec
    from repro.units import WINDOW_SAMPLES

    system = _traced_system(telemetry, n_nodes, electrodes, seed)
    rng = np.random.default_rng(seed)
    signatures_by_round = []
    for w in range(n_windows):
        batch = system.ingest(
            rng.normal(size=(n_nodes, electrodes, WINDOW_SAMPLES)).astype(
                np.float32
            )
        )
        signatures_by_round.append(batch)

    # hash exchange: every node broadcasts its latest batch, every
    # receiver runs a collision check against its recent local store
    for w, batch in enumerate(signatures_by_round):
        for src in range(n_nodes):
            system.broadcast_hashes(src, batch[src], seq=w * n_nodes + src)
        for node in range(n_nodes):
            for packet in system.drain_inbox(node):
                with telemetry.span(
                    "collision-check", trace=packet.trace, node=node
                ):
                    matches = system.nodes[node].check_remote_hashes(
                        system.unpack_hashes(packet)
                    )
                    telemetry.inc("system.hash_collisions", len(matches))

    # mark a couple of windows as detector hits so Q1 returns rows
    flags = {node: {0, n_windows - 1} for node in range(n_nodes)}
    result = system.query_distributed(
        QuerySpec(kind="q1", time_range_ms=100.0),
        (0, n_windows),
        seizure_flags=flags,
    )
    telemetry.set_gauge("scenario.rows_returned", len(result.rows))
    telemetry.set_gauge("scenario.coverage", result.coverage)
    return telemetry


def queries_scenario(
    telemetry: Telemetry,
    n_nodes: int = 3,
    electrodes: int = 4,
    n_windows: int = 5,
    seed: int = 0,
) -> Telemetry:
    """Interactive-query session: one distributed query per kind."""
    from repro.apps.queries import QuerySpec
    from repro.units import WINDOW_SAMPLES

    system = _traced_system(telemetry, n_nodes, electrodes, seed)
    rng = np.random.default_rng(seed)
    windows = None
    for _ in range(n_windows):
        windows = rng.normal(
            size=(n_nodes, electrodes, WINDOW_SAMPLES)
        ).astype(np.float32)
        system.ingest(windows)
    template = windows[0][0].astype(float)
    flags = {node: {1, 2} for node in range(n_nodes)}
    for spec, tpl in (
        (QuerySpec(kind="q1", time_range_ms=100.0), None),
        (QuerySpec(kind="q2", time_range_ms=100.0), template),
        (QuerySpec(kind="q3", time_range_ms=100.0), None),
    ):
        system.query_distributed(
            spec, (0, n_windows), template=tpl, seizure_flags=flags
        )
    return telemetry


def fig9a_scenario(
    telemetry: Telemetry,
    node_counts: tuple[int, ...] = (1, 2, 4, 8, 11, 16, 32, 64),
    seed: int = 0,
) -> Telemetry:
    """The Fig. 9a workload under telemetry: 24 ILP solves.

    Simulated time stands still here (the scheduler is analytical); the
    interesting numbers are the ``scheduler.solves`` count, the
    ``ilp-solve`` spans and the per-solve gauges, all fixed by the
    inputs, so two runs give identical snapshots.  ``seed`` is accepted
    for interface uniformity — the workload is deterministic by
    construction.
    """
    del seed
    from repro.eval.application import (
        FIG9A_WEIGHTS,
        seizure_propagation_schedule,
    )

    for weights in FIG9A_WEIGHTS:
        label = ":".join(str(int(w)) for w in weights)
        for n in node_counts:
            with telemetry.span("schedule", weights=label, nodes=n):
                schedule = seizure_propagation_schedule(
                    n, weights, telemetry=telemetry
                )
            telemetry.set_gauge(
                "scenario.weighted_mbps", schedule.weighted_mbps(),
                weights=label, nodes=n,
            )
    return telemetry


def recovery_session(
    telemetry: Telemetry,
    n_nodes: int = 4,
    electrodes: int = 4,
    seed: int = 0,
    faults: bool = True,
):
    """One crash → reboot → resync cycle; returns ``(system, query result)``.

    The seeded :class:`~repro.faults.plan.FaultPlan` crashes node 1
    *mid-cycle* — after it has stored a window but before that window's
    hash exchange — and rots one NVM bit each on node 0 (corrected by
    the background scrubber while alive) and on the crashed node
    (corrected by the reboot path's scrub pass).  One quiet round later
    the node reboots through the full
    :meth:`~repro.core.system.ScaloSystem.recover_node` path: journal
    replay, scrub, and bounded anti-entropy over the ARQ link.  Ingest
    then resumes fleet-wide and a distributed Q3 query runs over every
    window — with ``faults=False`` the exact same session runs clean, so
    callers can assert the repaired run answers identically.
    """
    from repro.apps.queries import QuerySpec
    from repro.faults.health import HealthMonitor
    from repro.faults.injector import FaultInjector
    from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
    from repro.recovery.scrub import FleetScrubber
    from repro.units import WINDOW_SAMPLES

    system = _traced_system(telemetry, n_nodes, electrodes, seed)
    n_rounds = 5
    events = (
        [
            FaultEvent(2, 1, FaultKind.NODE_CRASH),
            FaultEvent(2, 0, FaultKind.NVM_BIT_ROT, magnitude=1.0),
            FaultEvent(2, 1, FaultKind.NVM_BIT_ROT, magnitude=1.0),
            FaultEvent(3, 1, FaultKind.NODE_REBOOT),
        ]
        if faults
        else []
    )
    plan = FaultPlan(n_nodes=n_nodes, n_rounds=n_rounds, seed=seed, events=events)
    injector = FaultInjector(
        system,
        plan,
        health=HealthMonitor(n_nodes),
        resync_on_reboot=True,
        scrubber=FleetScrubber(system, telemetry=telemetry),
    )
    injector.failover = system.attach_failover(health=injector.health)

    rng = np.random.default_rng(seed)
    window = 0
    for r in range(n_rounds):
        batch = None
        if r != 3:  # round 3 is the maintenance round: reboot + resync only
            batch = system.ingest(
                rng.normal(size=(n_nodes, electrodes, WINDOW_SAMPLES)).astype(
                    np.float32
                )
            )
        # faults land between a round's ingest and its hash exchange, so
        # a crash strands the just-stored window: durable, never on air
        injector.step()
        if batch is not None:
            for src in range(n_nodes):
                if system.is_alive(src) and batch[src]:
                    system.broadcast_hashes(src, batch[src], seq=window)
            for node in system.alive_node_ids:
                for packet in system.drain_inbox(node):
                    with telemetry.span(
                        "collision-check", trace=packet.trace, node=node
                    ):
                        matches = system.nodes[node].check_remote_hashes(
                            system.unpack_hashes(packet)
                        )
                        telemetry.inc("system.hash_collisions", len(matches))
            window += 1

    result = system.query_distributed(
        QuerySpec(kind="q3", time_range_ms=100.0), (0, window)
    )
    telemetry.set_gauge("scenario.windows", window)
    telemetry.set_gauge("scenario.rows_returned", len(result.rows))
    telemetry.set_gauge("scenario.coverage", result.coverage)
    return system, result


def serving_scenario(
    telemetry: Telemetry,
    n_nodes: int = 4,
    electrodes: int = 8,
    seed: int = 0,
) -> Telemetry:
    """Fleet-scale serving under overload and a mid-run node crash.

    A seeded open-loop load generator offers ~40 QPS of mixed Q1/Q2/Q3
    traffic to a :class:`~repro.serving.server.QueryServer` fronting a 4-node
    fleet; a :class:`~repro.faults.plan.FaultPlan` crashes node 1 two
    TDMA rounds in, so later waves answer degraded over the survivors.
    Every admission decision, wave, shed, and deadline miss lands in the
    ``serving.*`` metrics and ``serve-wave`` spans.
    """
    from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
    from repro.serving.loadgen import LoadGenConfig, serve_session

    plan = FaultPlan(
        n_nodes=n_nodes,
        n_rounds=64,
        seed=seed,
        events=[FaultEvent(2, 1, FaultKind.NODE_CRASH)],
    )
    _, report = serve_session(
        n_nodes=n_nodes,
        electrodes=electrodes,
        seed=seed,
        load=LoadGenConfig(n_requests=48, offered_qps=40.0, seed=seed),
        telemetry=telemetry,
        fault_plan=plan,
    )
    telemetry.set_gauge("scenario.completed", report.completed)
    telemetry.set_gauge("scenario.shed", report.shed)
    telemetry.set_gauge("scenario.deadline_misses", report.deadline_misses)
    telemetry.set_gauge("scenario.p99_latency_ms", report.p99_latency_ms)
    telemetry.set_gauge("scenario.degraded_responses",
                        report.degraded_responses)
    return telemetry


def chaos_scenario(
    telemetry: Telemetry,
    seed: int = 0,
) -> Telemetry:
    """The three-level fault-storm sweep with the reliability stack armed.

    Runs :func:`~repro.eval.chaos.chaos_sweep` — mild / moderate /
    severe :class:`~repro.faults.plan.FaultPlan` storms against a
    6-node fleet with client retries, server-side coverage-SLA
    re-execution, circuit breakers, and brownout tiers all enabled —
    on one telemetry handle, so the ``serving.retries``,
    ``serving.breaker.*``, and ``serving.brownout.*`` counters
    accumulate across the whole sweep.
    """
    from repro.eval.chaos import ChaosConfig, chaos_sweep

    sweep = chaos_sweep(ChaosConfig(seed=seed), telemetry)
    for result in sweep.results:
        r = result.report
        telemetry.set_gauge(
            f"scenario.{result.level.name}.availability", r.availability
        )
        telemetry.set_gauge(
            f"scenario.{result.level.name}.sla_violations_final",
            r.sla_violations_final,
        )
        telemetry.set_gauge(
            f"scenario.{result.level.name}.p99_latency_ms", r.p99_latency_ms
        )
    telemetry.set_gauge("scenario.gates_passed", float(sweep.passed))
    return telemetry


def recover_scenario(
    telemetry: Telemetry,
    n_nodes: int = 4,
    electrodes: int = 4,
    seed: int = 0,
) -> Telemetry:
    """Crash-consistent recovery session (see :func:`recovery_session`)."""
    recovery_session(telemetry, n_nodes, electrodes, seed, faults=True)
    return telemetry


@dataclass(frozen=True)
class Scenario:
    """A named, seeded scenario."""

    name: str
    description: str
    run: Callable[[Telemetry, int], Telemetry]


SCENARIOS: dict[str, Scenario] = {
    "seizure": Scenario(
        "seizure",
        "ingest + reliable hash exchange + one traced distributed query",
        lambda tel, seed: seizure_scenario(tel, seed=seed),
    ),
    "queries": Scenario(
        "queries",
        "distributed Q1/Q2/Q3 round-trips over a noisy link",
        lambda tel, seed: queries_scenario(tel, seed=seed),
    ),
    "fig9a": Scenario(
        "fig9a",
        "the Fig. 9a scheduler sweep with per-solve spans and gauges",
        lambda tel, seed: fig9a_scenario(tel, seed=seed),
    ),
    "recover": Scenario(
        "recover",
        "crash + bit-rot, then reboot: replay, scrub, resync, full-coverage Q3",
        lambda tel, seed: recover_scenario(tel, seed=seed),
    ),
    "serve": Scenario(
        "serve",
        "open-loop query serving under overload with a mid-run node crash",
        lambda tel, seed: serving_scenario(tel, seed=seed),
    ),
    "chaos": Scenario(
        "chaos",
        "three-level fault-storm sweep: retries, breakers, brownouts",
        lambda tel, seed: chaos_scenario(tel, seed=seed),
    ),
}


def run_scenario(name: str, seed: int = 0) -> Telemetry:
    """Run one named scenario on a fresh telemetry handle."""
    if name not in SCENARIOS:
        known = ", ".join(sorted(SCENARIOS))
        raise KeyError(f"unknown scenario {name!r} (known: {known})")
    telemetry = Telemetry()
    return SCENARIOS[name].run(telemetry, seed)
