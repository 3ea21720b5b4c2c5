"""Seeded multi-tenant load for the fleet fabric.

Each tenant gets its **own** open-loop arrival stream, drawn from its
own RNG stream ``default_rng((seed, tenant_index))``.  That per-tenant
seeding is the isolation harness's measuring instrument: scaling one
tenant's rate multiplier regenerates only *that* tenant's timeline —
every other tenant offers byte-identical arrivals — so any change in a
victim's latency distribution between a baseline run and a noisy-
neighbour run is attributable to the noisy tenant alone, not to RNG
coupling.

Each stream is one :class:`~repro.serving.loadgen.LoadGenConfig` drawn
by :func:`~repro.serving.loadgen.generate_arrivals` with the client
fixed to the tenant.  The streams merge in ``(time, tenant)`` order —
total and deterministic — drive the fabric through the serving layer's
:func:`~repro.serving.loadgen.run_open_loop`, and fold into a
:class:`FabricReport` with per-tenant latency/shed/eviction accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.fabric.fabric import FabricConfig, FleetFabric
from repro.serving.loadgen import (
    Arrival,
    LoadGenConfig,
    generate_arrivals,
    percentile,
    run_open_loop,
)
from repro.telemetry import NULL_TELEMETRY, TelemetryLike


def tenant_name(index: int) -> str:
    """The canonical tenant naming scheme (``t00``, ``t01``, ...)."""
    return f"t{index:02d}"


@dataclass(frozen=True)
class FabricLoadConfig:
    """One multi-tenant open-loop load description."""

    n_tenants: int = 8
    requests_per_tenant: int = 16
    #: per-tenant offered rate (each tenant's own open loop)
    offered_qps: float = 4.0
    seed: int = 0
    #: tenant → rate multiplier (requests *and* rate scale together, so
    #: a 10× tenant floods 10× the offers over the same wall span)
    rate_multipliers: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n_tenants < 1:
            raise ConfigurationError("need at least one tenant")
        if self.requests_per_tenant < 1:
            raise ConfigurationError("need at least one request per tenant")
        for tenant, multiplier in self.rate_multipliers.items():
            if not 0 < multiplier < np.inf:
                raise ConfigurationError(
                    f"rate multiplier for {tenant!r} must be positive "
                    "and finite"
                )
        self.tenant_load(0)  # the per-stream checks live on LoadGenConfig

    @property
    def tenants(self) -> tuple[str, ...]:
        return tuple(tenant_name(i) for i in range(self.n_tenants))

    def tenant_load(self, index: int) -> LoadGenConfig:
        """Tenant ``index``'s own open-loop stream, multiplier applied."""
        multiplier = self.rate_multipliers.get(tenant_name(index), 1.0)
        return LoadGenConfig(
            n_requests=max(1, round(self.requests_per_tenant * multiplier)),
            offered_qps=self.offered_qps * multiplier,
            seed=self.seed,
            n_clients=1,
        )


def generate_tenant_arrivals(
    config: FabricLoadConfig,
) -> dict[str, list[Arrival]]:
    """Draw every tenant's arrival timeline from its own RNG stream."""
    return {
        tenant: generate_arrivals(
            config.tenant_load(index),
            rng=np.random.default_rng((config.seed, index)),
            client=tenant,
        )
        for index, tenant in enumerate(config.tenants)
    }


@dataclass
class TenantStats:
    """One tenant's view of a fabric run."""

    tenant: str
    fleet_id: int
    offered: int
    completed: int
    shed: int
    shed_by_reason: dict[str, int]
    deadline_misses: int
    mean_latency_ms: float
    p50_latency_ms: float
    p99_latency_ms: float
    #: retained results this tenant's own churn evicted (partitioned
    #: LRU: a neighbour's churn can never show up here)
    results_evicted: int

    @property
    def availability(self) -> float:
        return self.completed / self.offered if self.offered else 1.0


@dataclass
class FabricReport:
    """What one multi-tenant fabric run did, per tenant and overall."""

    n_fleets: int
    n_tenants: int
    offered: int
    completed: int
    shed: int
    deadline_misses: int
    mean_latency_ms: float
    p99_latency_ms: float
    tenants: dict[str, TenantStats]
    #: tenant → owning fleet (the shard-map routing actually used)
    routing: dict[str, int]
    #: per-fleet canonical response logs (the determinism contract)
    fleet_logs: dict[int, str] = field(repr=False, default_factory=dict)

    @property
    def availability(self) -> float:
        return self.completed / self.offered if self.offered else 1.0

    def combined_log(self) -> str:
        """All fleet logs, fleet-id-ordered — the byte-identity artifact."""
        return "\n".join(
            f"fleet={fleet_id:03d}\n{log}"
            for fleet_id, log in sorted(self.fleet_logs.items())
        )


def fabric_session(
    *,
    config: FabricConfig | None = None,
    load: FabricLoadConfig | None = None,
    telemetry: TelemetryLike = NULL_TELEMETRY,
    health=None,
) -> tuple[FleetFabric, FabricReport]:
    """Build a fabric, offer one seeded multi-tenant load, report.

    ``health`` accepts a
    :class:`~repro.telemetry.health.engine.HealthEngine`: its flight recorder
    attaches to every fleet server and the engine samples the shared
    registry at each offer, so the per-tenant ``fabric.{tenant}.*``
    SLOs (see :func:`repro.fabric.slos.tenant_slos`) burn as the run
    progresses.  Observational only — fleet response logs are
    byte-identical with or without it.  Shed offers are counted, not
    retried, so availability is an honest open-loop measurement.
    """
    config = config if config is not None else FabricConfig()
    load = load if load is not None else FabricLoadConfig(seed=config.seed)
    fabric = FleetFabric(config=config, telemetry=telemetry)
    if health is not None and health.enabled:
        for shard in fabric.shards.values():
            health.attach_server(shard.server)

    arrivals = generate_tenant_arrivals(load)
    _, shed, _ = run_open_loop(
        fabric,
        sorted(
            (a for stream in arrivals.values() for a in stream),
            key=lambda a: (a.at_ms, a.client),
        ),
        lambda tenant: fabric.shard_for(tenant).templates,
        health=health,
    )

    tenants: dict[str, TenantStats] = {}
    all_latencies: list[float] = []
    for tenant in sorted(arrivals):
        shard = fabric.shard_for(tenant)
        responses = fabric.tenant_responses(tenant)
        latencies = [r.latency_ms for r in responses]
        all_latencies.extend(latencies)
        reasons = shed.get(tenant, {})
        tenants[tenant] = TenantStats(
            tenant=tenant,
            fleet_id=shard.fleet_id,
            offered=len(arrivals[tenant]),
            completed=len(responses),
            shed=sum(reasons.values()),
            shed_by_reason=dict(sorted(reasons.items())),
            deadline_misses=sum(r.deadline_missed for r in responses),
            mean_latency_ms=float(np.mean(latencies)) if latencies else 0.0,
            p50_latency_ms=percentile(latencies, 50.0),
            p99_latency_ms=percentile(latencies, 99.0),
            results_evicted=shard.server.stats.results_evicted_by_client.get(
                tenant, 0
            ),
        )
    return fabric, FabricReport(
        n_fleets=len(fabric.fleet_ids),
        n_tenants=len(tenants),
        offered=sum(s.offered for s in tenants.values()),
        completed=sum(s.completed for s in tenants.values()),
        shed=sum(s.shed for s in tenants.values()),
        deadline_misses=sum(s.deadline_misses for s in tenants.values()),
        mean_latency_ms=(
            float(np.mean(all_latencies)) if all_latencies else 0.0
        ),
        p99_latency_ms=percentile(all_latencies, 99.0),
        tenants=tenants,
        routing={t: s.fleet_id for t, s in tenants.items()},
        fleet_logs=fabric.response_logs(),
    )
