"""Seeded open-loop load generation for the query server.

An *open-loop* generator emits arrivals on its own schedule regardless
of how the server is doing (the honest way to measure shedding: a
closed loop would self-throttle and hide overload).  Arrivals are drawn
from one seeded RNG — exponential inter-arrival gaps at the offered
QPS, clients and query kinds sampled from fixed mixes, Q2 templates
drawn from a small pool so compatible queries actually coalesce — and
the whole timeline is a pure function of the config, so two runs with
the same seed offer byte-identical load.

Clients can carry a :class:`~repro.serving.reliability.RetryPolicy`:
a shed request is then re-offered after the larger of the server's
``retry_after_ms`` hint and the policy's seeded backoff, keeping the
retried timeline a pure function of the seed.  *Availability* —
``completed / offered`` over unique requests — is the headline chaos
metric.

:func:`serve_session` is the everything-wired entry point used by the
``serve``/``chaos`` CLIs, the telemetry scenarios, and the benchmarks:
build a seeded fleet, ingest, optionally replay a
:class:`~repro.faults.plan.FaultPlan` against it while the load runs
(the health monitor's belief feeds the server), and return the server
plus a :class:`ServeReport`.  The fleet fabric
(:mod:`repro.fabric`) is many of these fleets side by side: it builds
each with :func:`build_fleet`, draws each tenant's stream with
:func:`generate_arrivals`, and drives the merged streams through
:func:`run_open_loop` — one serving plane, not two.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.apps.queries import QueryCostModel, QueryEngine, QuerySpec
from repro.core.system import ScaloSystem
from repro.errors import ConfigurationError, QueryRejected
from repro.serving.reliability import TIER_NAMES, RetryPolicy
from repro.serving.server import QueryResponse, QueryServer, ServerConfig
from repro.telemetry import NULL_TELEMETRY, TelemetryLike
from repro.units import DEFAULT_DEADLINE_MS, ROUND_MS, WINDOW_SAMPLES

#: q1/q2/q3 mix of every load (normalised at draw time)
KIND_WEIGHTS = (0.25, 0.5, 0.25)
#: Q2 probes are drawn from a per-fleet pool this large, so repeats
#: coalesce
N_TEMPLATES = 3
#: time span each query covers (the Fig. 10 cost-model input, ms)
TIME_RANGE_MS = 110.0
#: fraction of data matching Q1/Q2 predicates (Q3 ships everything)
MATCH_FRACTION = 0.05


@dataclass(frozen=True)
class LoadGenConfig:
    """One open-loop load description."""

    n_requests: int = 64
    offered_qps: float = 20.0
    seed: int = 0
    n_clients: int = 4
    #: relative deadline stamped on every request (ms after arrival)
    deadline_ms: float = DEFAULT_DEADLINE_MS
    #: coverage SLA stamped on every request (0 = answers always satisfy)
    min_coverage: float = 0.0

    def __post_init__(self) -> None:
        if self.n_requests < 1:
            raise ConfigurationError("need at least one request")
        if not 0 < self.offered_qps < np.inf:
            raise ConfigurationError(
                "offered load must be positive and finite"
            )
        if self.n_clients < 1:
            raise ConfigurationError("need at least one client")
        if not 0 < self.deadline_ms < np.inf:
            raise ConfigurationError("deadline must be positive and finite")
        if not 0 <= self.min_coverage <= 1:
            raise ConfigurationError("coverage SLA must be in [0, 1]")


@dataclass(frozen=True)
class Arrival:
    """One scheduled request: when, who, and what to ask."""

    at_ms: float
    client: str
    spec: QuerySpec
    template_index: int | None


def generate_arrivals(
    config: LoadGenConfig,
    *,
    rng: np.random.Generator | None = None,
    client: str | None = None,
) -> list[Arrival]:
    """Draw the deterministic arrival timeline for one load config.

    ``rng`` defaults to ``default_rng(config.seed)``.  A fixed
    ``client`` stamps every arrival with that name and skips the
    per-arrival client draw, so the stream spends its RNG only on gaps,
    kinds and templates (the fabric's one-tenant-per-stream timelines).
    """
    rng = np.random.default_rng(config.seed) if rng is None else rng
    weights = np.asarray(KIND_WEIGHTS, dtype=float)
    weights = weights / weights.sum()
    arrivals: list[Arrival] = []
    t = 0.0
    for _ in range(config.n_requests):
        t += float(rng.exponential(1e3 / config.offered_qps))
        who = (
            client
            if client is not None
            else f"c{int(rng.integers(config.n_clients)):02d}"
        )
        kind = ("q1", "q2", "q3")[int(rng.choice(3, p=weights))]
        template_index = (
            int(rng.integers(N_TEMPLATES)) if kind == "q2" else None
        )
        spec = QuerySpec(
            kind=kind,
            time_range_ms=TIME_RANGE_MS,
            match_fraction=1.0 if kind == "q3" else MATCH_FRACTION,
        )
        arrivals.append(Arrival(t, who, spec, template_index))
    return arrivals


@dataclass
class ServeReport:
    """What one open-loop run did, summarised for tables and gates.

    ``completed`` counts *unique* answered requests; a server-side
    coverage-SLA re-execution replaces its earlier answer rather than
    counting twice, and latency/miss statistics are taken over each
    request's final answer.
    """

    offered_qps: float
    n_offered: int
    completed: int
    shed: int
    deadline_misses: int
    waves: int
    coalesced_requests: int
    mean_latency_ms: float
    p50_latency_ms: float
    p99_latency_ms: float
    max_queue_depth: int
    degraded_responses: int
    response_log: str = field(repr=False, default="")
    #: shed offers the client retried (and which later completed or
    #: exhausted the policy)
    client_retries: int = 0
    #: server-side coverage-SLA re-executions
    server_retries: int = 0
    #: responses below their coverage SLA, before/after re-execution
    sla_violations_initial: int = 0
    sla_violations_final: int = 0
    breaker_opened: int = 0
    breaker_half_open: int = 0
    breaker_closed: int = 0
    #: waves served per brownout tier (tier → count)
    brownout_waves: dict[int, int] = field(default_factory=dict)
    brownout_rejections: int = 0
    timeouts_charged: int = 0

    @property
    def shed_rate(self) -> float:
        return self.shed / self.n_offered if self.n_offered else 0.0

    @property
    def miss_rate(self) -> float:
        return self.deadline_misses / self.completed if self.completed else 0.0

    @property
    def availability(self) -> float:
        """Unique requests answered / unique requests offered."""
        return self.completed / self.n_offered if self.n_offered else 1.0


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    if not sorted_values:
        return 0.0
    rank = max(1, int(np.ceil(q / 100.0 * len(sorted_values))))
    return sorted_values[rank - 1]


def percentile(values, q: float) -> float:
    """Deterministic nearest-rank percentile over unsorted ``values``.

    The one percentile definition every serving/fabric report uses, so
    per-tenant and per-fleet numbers are always comparable.
    """
    return _percentile(sorted(float(v) for v in values), q)


def final_responses(server: QueryServer) -> list[QueryResponse]:
    """Each request's latest answer (re-executions supersede), id-ordered."""
    final: dict[int, QueryResponse] = {}
    for response in server.responses:
        current = final.get(response.request_id)
        if current is None or response.attempt > current.attempt:
            final[response.request_id] = response
    return [final[rid] for rid in sorted(final)]


def summarise(
    server: QueryServer,
    offered_qps: float,
    n_offered: int,
    shed: int,
    client_retries: int = 0,
) -> ServeReport:
    """Fold a finished server's responses into a :class:`ServeReport`."""
    finals = final_responses(server)
    latencies = sorted(r.latency_ms for r in finals)
    wave_ids = {r.wave_id for r in server.responses}
    coalesced = sum(1 for r in finals if r.wave_size > 1)

    def total(name: str, **labels: str) -> int:
        """One ``serving.*`` counter, over the cells carrying ``labels``."""
        return int(sum(
            value for (metric, cell), value in server.counts.items()
            if metric == name and set(labels.items()) <= set(cell)
        ))

    return ServeReport(
        offered_qps=offered_qps,
        n_offered=n_offered,
        completed=len(finals),
        shed=shed,
        deadline_misses=sum(r.deadline_missed for r in finals),
        waves=len(wave_ids),
        coalesced_requests=coalesced,
        mean_latency_ms=float(np.mean(latencies)) if latencies else 0.0,
        p50_latency_ms=_percentile(latencies, 50.0),
        p99_latency_ms=_percentile(latencies, 99.0),
        max_queue_depth=server.max_queue_depth,
        degraded_responses=sum(r.degraded for r in finals),
        response_log=server.response_log(),
        client_retries=client_retries,
        server_retries=total("serving.retries"),
        sla_violations_initial=total("serving.sla_violation"),
        sla_violations_final=sum(not r.sla_met for r in finals),
        breaker_opened=total("serving.breaker.opened"),
        breaker_half_open=total("serving.breaker.half_open"),
        breaker_closed=total("serving.breaker.closed"),
        brownout_waves={
            tier: n for tier, label in TIER_NAMES.items()
            if (n := total("serving.brownout.waves", tier=label))
        },
        brownout_rejections=total("serving.shed", reason="brownout"),
        timeouts_charged=total("serving.timeouts"),
    )


@dataclass
class Fleet:
    """One seeded patient fleet: its system and the server over it."""

    system: ScaloSystem
    server: QueryServer
    #: the Q2 probe pool, drawn from the fleet's own ingested windows
    templates: list[np.ndarray]
    #: the full ingested range every request covers
    window_range: tuple[int, int]

    @property
    def n_nodes(self) -> int:
        return len(self.system.nodes)


def build_fleet(
    *,
    n_nodes: int,
    electrodes: int,
    n_windows: int,
    seed: int,
    server_config: ServerConfig | None = None,
    telemetry: TelemetryLike = NULL_TELEMETRY,
) -> Fleet:
    """Build a seeded system, ingest ``n_windows`` windows into it, pick
    the :data:`N_TEMPLATES` Q2 template pool, and wire a query engine
    and server over it.

    Signals come from ``default_rng(seed)``, so two fleets built with
    the same arguments hold the same data, templates, and engine state.
    """
    system = ScaloSystem(
        n_nodes=n_nodes,
        electrodes_per_node=electrodes,
        seed=seed,
        telemetry=telemetry,
    )
    rng = np.random.default_rng(seed)
    templates: list[np.ndarray] = []
    for _ in range(n_windows):
        windows = (
            rng.standard_normal((n_nodes, electrodes, WINDOW_SAMPLES)).cumsum(
                axis=2
            )
            * 300
        ).round()
        system.ingest(windows)
        if len(templates) < N_TEMPLATES:
            templates.append(windows[0, 0].astype(float))
    while len(templates) < N_TEMPLATES:
        templates.append(templates[-1])
    engine = QueryEngine(
        controllers=[node.storage for node in system.nodes],
        lsh=system.lsh,
        seizure_flags={node: {0, n_windows - 1} for node in range(n_nodes)},
        telemetry=telemetry,
    )
    server = QueryServer(
        engine,
        config=server_config if server_config is not None else ServerConfig(),
        cost_model=QueryCostModel(
            n_nodes=n_nodes, electrodes_per_node=electrodes
        ),
        telemetry=telemetry,
    )
    return Fleet(system, server, templates, (0, n_windows))


def run_open_loop(
    target,
    arrivals: list[Arrival],
    templates: Callable[[str], Sequence[np.ndarray]],
    *,
    window_range: tuple[int, int] | None = None,
    deadline_ms: float = DEFAULT_DEADLINE_MS,
    min_coverage: float = 0.0,
    client_retry: RetryPolicy | None = None,
    on_advance=None,
    finalize=None,
    health=None,
) -> tuple[int, dict[str, dict[str, int]], int]:
    """Drive one arrival timeline through a server or a fabric.

    ``target`` is a :class:`~repro.serving.server.QueryServer` or a
    :class:`~repro.fabric.fabric.FleetFabric` (both offer ``run_until``,
    ``drain``, ``now_ms`` and ``submit``).  ``templates(client)`` is the
    Q2 probe pool for that client's requests; ``window_range=None``
    lets a fabric use each fleet's full range.

    Between offers the target dispatches whatever waves can start
    (``run_until``); ``on_advance(t_ms)`` — called before each offer and
    once after the last — lets a caller interleave external timelines
    (the fault injector's TDMA rounds).  ``finalize(t_ms)`` runs after
    the last offer but *before* the final drain, so a chaos driver can
    play out the rest of its fault plan (letting crashed nodes reboot
    and parked SLA re-executions reschedule) while requests are still
    in flight.  A :class:`~repro.telemetry.health.engine.HealthEngine` passed
    as ``health`` samples the registry up to each offer and closes its
    last round after the drain; it is observational only.

    With a ``client_retry`` policy, a shed offer is re-enqueued at the
    larger of the server's ``retry_after_ms`` hint and the policy's
    seeded backoff; only offers that exhaust the policy count as shed.
    Offers pop in ``(time, position)`` order, so per-client admission
    timestamps stay monotonic.  Returns ``(n_offered, shed_by_client,
    n_client_retries)`` over *unique* arrivals, where
    ``shed_by_client[client][reason]`` counts final sheds; responses
    accumulate on the target.
    """
    heap: list[tuple[float, int, int]] = [
        (arrival.at_ms, seq, 0) for seq, arrival in enumerate(arrivals)
    ]
    heapq.heapify(heap)
    shed: dict[str, dict[str, int]] = {}
    client_retries = 0
    last_t = 0.0
    while heap:
        at, seq, attempt = heapq.heappop(heap)
        last_t = at
        arrival = arrivals[seq]
        if on_advance is not None:
            on_advance(at)
        if health is not None:
            health.observe_to(at)
        target.run_until(at)
        if arrival.template_index is None:
            template = None
        else:
            pool = templates(arrival.client)
            template = pool[arrival.template_index % len(pool)]
        try:
            target.submit(
                arrival.client,
                arrival.spec,
                window_range=window_range,
                template=template,
                deadline_ms=deadline_ms,
                arrival_ms=at,
                min_coverage=min_coverage,
            )
        except QueryRejected as exc:
            if client_retry is not None and client_retry.allows(attempt):
                backoff = max(
                    float(exc.retry_after_ms),
                    client_retry.backoff_ms(seq, attempt),
                )
                heapq.heappush(heap, (at + backoff, seq, attempt + 1))
                client_retries += 1
            else:
                reasons = shed.setdefault(arrival.client, {})
                reasons[exc.reason] = reasons.get(exc.reason, 0) + 1
    if arrivals:
        if on_advance is not None:
            on_advance(last_t)
        if health is not None:
            health.observe_to(last_t)
    if finalize is not None:
        finalize(last_t)
    target.drain()
    if health is not None:
        health.finalize(target.now_ms)
    return len(arrivals), shed, client_retries


def serve_session(
    *,
    n_nodes: int = 4,
    electrodes: int = 8,
    n_windows: int = 4,
    seed: int = 0,
    load: LoadGenConfig | None = None,
    server_config: ServerConfig | None = None,
    telemetry: TelemetryLike = NULL_TELEMETRY,
    fault_plan=None,
    client_retry: RetryPolicy | None = None,
    health=None,
) -> tuple[QueryServer, ServeReport]:
    """Build a fleet, offer one seeded load, return server + report.

    ``health`` accepts a
    :class:`~repro.telemetry.health.engine.HealthEngine`: its flight recorder
    is attached to the server (breaker/brownout/shed evidence) and the
    engine samples the registry at every TDMA round of the load, so SLO
    burn rates, anomalies, and incident bundles accumulate as the run
    progresses.  The engine is observational — attaching one never
    changes the response log.

    With a ``fault_plan``, a :class:`~repro.faults.injector.FaultInjector`
    replays it against the system while the load runs — one TDMA round
    per :data:`~repro.units.ROUND_MS` of simulated serving time — and
    the health monitor's belief (unioned with ground-truth dead nodes)
    steers the server's degraded answers.  After the last offer the
    remaining plan rounds play out before the final drain, so reboots
    scheduled past the load's end still trigger coverage-SLA
    re-execution.  Same seed + same plan ⇒ byte-identical response log,
    with or without telemetry attached.

    A plan that schedules partitions additionally activates the quorum
    stack: per-node liveness views, an epoch-fenced
    :class:`~repro.recovery.failover.FailoverManager` elected by strict
    majority, and quorum-aware serving — while no side holds quorum the
    server answers cache-only, and regaining quorum (heal) reschedules
    parked below-SLA requests.
    """
    load = load if load is not None else LoadGenConfig(seed=seed)
    fleet = build_fleet(
        n_nodes=n_nodes,
        electrodes=electrodes,
        n_windows=n_windows,
        seed=seed,
        server_config=server_config,
        telemetry=telemetry,
    )
    system, server = fleet.system, fleet.server

    on_advance = None
    finalize = None
    if fault_plan is not None:
        from repro.faults.injector import FaultInjector

        injector = FaultInjector(system, fault_plan)
        # Partition plans switch on the quorum stack: per-node views
        # (the injector auto-created them), an epoch-fenced failover
        # manager over those views, and quorum-aware serving.  Plans
        # without partitions keep the legacy shared-belief path
        # byte-for-byte, so existing storm logs never shift.
        manager = None
        if fault_plan.has_partitions:
            manager = system.attach_failover(views=injector.belief)
            injector.failover = manager
            server.failover = manager

        def _sync_dead() -> None:
            if manager is not None:
                # Serve from the coordinator's vantage: its view decides
                # which nodes waves route around.  With no coordinator
                # seated (no majority side), the lowest ground-truth
                # alive node fronts read-only traffic and the server is
                # pinned cache-only via the quorum signal.
                alive = system.alive_node_ids
                vantage = manager.coordinator
                if vantage is None:
                    vantage = alive[0] if alive else 0
                server.set_quorum(manager.coordinator is not None)
                server.set_dead_nodes(
                    set(injector.belief.view(vantage).dead_nodes)
                    | set(system.dead_node_ids)
                )
            else:
                server.set_dead_nodes(
                    set(injector.health.dead_nodes) | set(system.dead_node_ids)
                )

        def on_advance(t_ms: float) -> None:
            target_round = int(t_ms // ROUND_MS)
            while (
                injector.round_index <= target_round
                and injector.round_index < fault_plan.n_rounds
            ):
                injector.step()
            _sync_dead()

        def finalize(t_ms: float) -> None:
            while injector.round_index < fault_plan.n_rounds:
                injector.step()
            _sync_dead()

    if health is not None and health.enabled:
        health.attach_server(server)
    n_offered, shed, client_retries = run_open_loop(
        server,
        generate_arrivals(load),
        lambda _client: fleet.templates,
        window_range=fleet.window_range,
        deadline_ms=load.deadline_ms,
        min_coverage=load.min_coverage,
        client_retry=client_retry,
        on_advance=on_advance,
        finalize=finalize,
        health=health,
    )
    n_shed = sum(sum(reasons.values()) for reasons in shed.values())
    return server, summarise(
        server, load.offered_qps, n_offered, n_shed, client_retries
    )
