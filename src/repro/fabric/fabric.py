"""The multi-tenant fleet fabric: many fleets, one serving plane.

SCALO's unit of deployment is one patient fleet — one
:class:`~repro.core.system.ScaloSystem`, one coordinator, one query
server.  The fabric runs many of those side by side and adds the three
things a multi-site deployment needs (the Hull follow-on's framing):

* **routing** — every tenant is owned by exactly one fleet, assigned by
  the consistent-hash :class:`~repro.fabric.shardmap.ShardMap`; a
  tenant's queries always hit its own fleet's server, cache, and
  retained results;
* **isolation** — each fleet's
  :class:`~repro.serving.server.QueryServer` runs with per-client token
  buckets, a per-client pending-queue quota (shed reason
  ``tenant_quota``), and a client-partitioned result LRU,
  so a tenant flooding at 10× its share is clamped at admission and its
  churn can never evict a neighbour's retained answers;
* **population queries** — a cross-fleet question ("run Q2 everywhere")
  scatters one request per fleet through the serving layer, gathers
  with the PR-6 partial-coverage merge semantics (a shed or degraded
  fleet lowers coverage instead of failing the query), and charges a
  small gather cost that grows only linearly-with-tiny-slope in fleet
  count — the scatter itself is concurrent, so population latency is
  the *max* fleet latency, not the sum.

Per-tenant ``fabric.{tenant}.*`` counters are booked on the shared
telemetry registry (observational only — the per-fleet response logs
are byte-identical with telemetry on or off), which is what the
per-tenant SLOs in :mod:`repro.fabric.slos` burn against.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.apps.queries import QuerySpec
from repro.errors import ConfigurationError, QueryRejected
from repro.fabric.shardmap import ShardMap
from repro.serving.loadgen import Fleet, build_fleet, final_responses
from repro.serving.server import QueryResponse, ServerConfig
from repro.telemetry import NULL_TELEMETRY, TelemetryLike

#: the reserved client name population scatters run under (never a tenant)
POPULATION_CLIENT = "_population"
#: fixed cost of assembling a population answer (merge + transmit, ms)
GATHER_BASE_MS = 5.0
#: incremental gather cost per fleet in the scatter set (ms)
GATHER_PER_FLEET_MS = 0.05
#: per-tenant pending-queue quota on every default fleet server
TENANT_QUEUE_QUOTA = 4


@dataclass(frozen=True)
class FabricConfig:
    """Shape and isolation policy for one :class:`FleetFabric`."""

    n_fleets: int = 4
    nodes_per_fleet: int = 4
    electrodes: int = 8
    n_windows: int = 4
    seed: int = 0
    #: per-fleet server tunables; ``None`` builds a tenant-isolated
    #: default (:data:`TENANT_QUEUE_QUOTA` + client-partitioned result
    #: retention)
    server_config: ServerConfig | None = None

    def __post_init__(self) -> None:
        if self.n_fleets < 1:
            raise ConfigurationError("fabric needs at least one fleet")
        if self.nodes_per_fleet < 1:
            raise ConfigurationError("fleets need at least one node")
        if self.n_windows < 1:
            raise ConfigurationError("fleets need at least one window")

    def resolved_server_config(self) -> ServerConfig:
        """The per-fleet server config (tenant-isolated unless overridden)."""
        if self.server_config is not None:
            return self.server_config
        return ServerConfig(
            per_client_queue_quota=TENANT_QUEUE_QUOTA,
            partition_results_by_client=True,
        )

    def shard_map(self) -> ShardMap:
        """The initial tenant → fleet ring over fleets ``0..n_fleets-1``."""
        return ShardMap(fleet_ids=tuple(range(self.n_fleets)), seed=self.seed)


@dataclass
class FleetShard(Fleet):
    """One fabric fleet: a :class:`~repro.serving.loadgen.Fleet` plus
    its id and the fabric's harvest cursor."""

    fleet_id: int
    #: responses already folded into fabric counters (harvest cursor)
    harvested: int = 0


def build_fleet_shard(
    fleet_id: int,
    config: FabricConfig,
    telemetry: TelemetryLike = NULL_TELEMETRY,
) -> FleetShard:
    """Build one fleet with the serving layer's own fleet builder.

    The fleet seed is ``config.seed + fleet_id``, so fleet 0 of a fabric
    is *the same fleet* (same signals, templates, engine state) as a
    directly-built system at ``config.seed`` — the anchor for the
    1-tenant byte-identity property in the test suite.
    """
    fleet = build_fleet(
        n_nodes=config.nodes_per_fleet,
        electrodes=config.electrodes,
        n_windows=config.n_windows,
        seed=config.seed + fleet_id,
        server_config=config.resolved_server_config(),
        telemetry=telemetry,
    )
    return FleetShard(**vars(fleet), fleet_id=fleet_id)


@dataclass(frozen=True)
class FleetAnswer:
    """One fleet's contribution to a population query."""

    fleet_id: int
    n_nodes: int
    response: QueryResponse | None = None
    shed_reason: str | None = None

    @property
    def ok(self) -> bool:
        return self.response is not None

    @property
    def coverage(self) -> float:
        """Node-local coverage; a shed fleet contributes nothing."""
        return self.response.coverage if self.response is not None else 0.0


@dataclass(frozen=True)
class PopulationResult:
    """The gathered answer to one cross-fleet population query.

    ``coverage`` is node-weighted across the scatter set: every node in
    every targeted fleet counts in the denominator, so a shed fleet (or
    a fleet answering around dead nodes) lowers coverage exactly as a
    dead node lowers single-fleet coverage — the PR-6 partial-coverage
    contract lifted one level up.
    """

    kind: str
    start_ms: float
    finish_ms: float
    gather_ms: float
    coverage: float
    n_rows: int
    rows_crc: int
    min_coverage: float
    answers: tuple[FleetAnswer, ...]

    @property
    def latency_ms(self) -> float:
        return self.finish_ms - self.start_ms

    @property
    def n_fleets(self) -> int:
        return len(self.answers)

    @property
    def shed_fleets(self) -> tuple[int, ...]:
        return tuple(a.fleet_id for a in self.answers if not a.ok)

    @property
    def degraded(self) -> bool:
        return any(not a.ok or a.response.degraded for a in self.answers)

    @property
    def sla_met(self) -> bool:
        return self.coverage >= self.min_coverage

    def log_line(self) -> str:
        return (
            f"population kind={self.kind} start={self.start_ms:012.3f} "
            f"finish={self.finish_ms:012.3f} fleets={self.n_fleets:03d} "
            f"shed={len(self.shed_fleets):03d} rows={self.n_rows:05d} "
            f"crc={self.rows_crc:08x} coverage={self.coverage:.3f} "
            f"sla={int(self.sla_met)}"
        )


@dataclass
class FleetFabric:
    """Many fleets behind one tenant-aware serving plane."""

    config: FabricConfig = field(default_factory=FabricConfig)
    telemetry: TelemetryLike = field(default=NULL_TELEMETRY, repr=False)

    def __post_init__(self) -> None:
        self.shard_map = self.config.shard_map()
        self.shards: dict[int, FleetShard] = {
            fleet_id: build_fleet_shard(fleet_id, self.config, self.telemetry)
            for fleet_id in range(self.config.n_fleets)
        }
        self._next_fleet_id = self.config.n_fleets
        self.population_log: list[str] = []
        self.population_results: list[PopulationResult] = []

    # -- topology ----------------------------------------------------------------

    @property
    def fleet_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self.shards))

    @property
    def now_ms(self) -> float:
        """The fabric clock: the furthest-ahead fleet server."""
        return max(shard.server.now_ms for shard in self.shards.values())

    def fleet_for(self, tenant: str) -> int:
        """The fleet id owning ``tenant`` (consistent-hash routing)."""
        return self.shard_map.owner(tenant)

    def shard_for(self, tenant: str) -> FleetShard:
        return self.shards[self.fleet_for(tenant)]

    def add_fleet(self) -> int:
        """Bring one more fleet online; returns its id.

        Only tenants whose ring arcs the new fleet claims move to it —
        everyone else keeps their fleet, cache, and retained results.
        """
        fleet_id = self._next_fleet_id
        self._next_fleet_id += 1
        self.shards[fleet_id] = build_fleet_shard(
            fleet_id, self.config, self.telemetry
        )
        self.shard_map.add_fleet(fleet_id)
        return fleet_id

    def remove_fleet(self, fleet_id: int) -> None:
        """Retire one fleet; its tenants fall to their ring successors."""
        self.shard_map.remove_fleet(fleet_id)
        del self.shards[fleet_id]

    # -- per-tenant serving ------------------------------------------------------

    def _tenant_inc(self, tenant: str, event: str) -> None:
        tel = self.telemetry
        if tel.enabled:
            tel.inc(f"fabric.{tenant}.{event}")

    def submit(
        self,
        tenant: str,
        spec: QuerySpec,
        *,
        window_range: tuple[int, int] | None = None,
        template: np.ndarray | None = None,
        deadline_ms: float | None = None,
        arrival_ms: float | None = None,
        min_coverage: float | None = None,
    ) -> tuple[int, int]:
        """Route one tenant request to its owning fleet.

        Returns ``(fleet_id, request_id)``.  ``window_range`` defaults
        to the fleet's full ingested range.  Sheds propagate as
        :class:`~repro.errors.QueryRejected` with the fleet server's
        reason (``queue_full`` / ``tenant_quota`` / ``rate_limited`` /
        ``brownout``).
        """
        shard = self.shard_for(tenant)
        self._tenant_inc(tenant, "submitted")
        try:
            request_id = shard.server.submit(
                tenant,
                spec,
                shard.window_range if window_range is None else window_range,
                template=template,
                deadline_ms=deadline_ms,
                arrival_ms=arrival_ms,
                min_coverage=min_coverage,
            )
        except QueryRejected:
            self._tenant_inc(tenant, "shed")
            raise
        return shard.fleet_id, request_id

    def _harvest(self, shard: FleetShard) -> None:
        """Fold newly-completed responses into per-tenant counters."""
        responses = shard.server.responses
        if self.telemetry.enabled:
            for response in responses[shard.harvested:]:
                if response.client == POPULATION_CLIENT:
                    continue
                self._tenant_inc(response.client, "completed")
                if response.deadline_missed:
                    self._tenant_inc(response.client, "deadline_miss")
        shard.harvested = len(responses)

    def run_until(self, t_ms: float) -> None:
        """Advance every fleet's serving clock to ``t_ms``."""
        for fleet_id in self.fleet_ids:
            shard = self.shards[fleet_id]
            shard.server.run_until(t_ms)
            self._harvest(shard)

    def drain(self) -> None:
        """Dispatch every pending wave on every fleet."""
        for fleet_id in self.fleet_ids:
            shard = self.shards[fleet_id]
            shard.server.drain()
            self._harvest(shard)

    def tenant_responses(self, tenant: str) -> list[QueryResponse]:
        """A tenant's final answers from its owning fleet, id-ordered."""
        shard = self.shard_for(tenant)
        return [
            response
            for response in final_responses(shard.server)
            if response.client == tenant
        ]

    def response_logs(self) -> dict[int, str]:
        """Each fleet's canonical response log (the determinism contract)."""
        return {
            fleet_id: self.shards[fleet_id].server.response_log()
            for fleet_id in self.fleet_ids
        }

    # -- population queries ------------------------------------------------------

    def population_query(
        self,
        spec: QuerySpec,
        *,
        window_range: tuple[int, int] | None = None,
        template: np.ndarray | None = None,
        min_coverage: float = 0.0,
        fleets: tuple[int, ...] | None = None,
        deadline_ms: float | None = None,
    ) -> PopulationResult:
        """Scatter one query to every fleet, gather with coverage merge.

        The scatter submits one request per fleet through that fleet's
        server (so population load is admission-controlled and brownout-
        gated like any tenant's) at the current fabric clock; fleets run
        concurrently, so the gathered finish time is the *max* fleet
        finish plus the gather charge — population latency scales with
        the slowest fleet, not the fleet count.  ``window_range``
        defaults to each fleet's full ingested range.
        """
        if not 0 <= min_coverage <= 1:
            raise ConfigurationError("coverage SLA must be in [0, 1]")
        targets = self.fleet_ids if fleets is None else tuple(fleets)
        for fleet_id in targets:
            if fleet_id not in self.shards:
                raise ConfigurationError(f"no fleet {fleet_id} in fabric")
        if not targets:
            raise ConfigurationError("population query needs at least one fleet")

        start = self.now_ms
        tel = self.telemetry
        if tel.enabled:
            tel.inc("fabric.population.submitted", kind=spec.kind)

        pending: list[tuple[FleetShard, int | None, str | None]] = []
        for fleet_id in targets:
            shard = self.shards[fleet_id]
            try:
                request_id = shard.server.submit(
                    POPULATION_CLIENT,
                    spec,
                    shard.window_range if window_range is None else window_range,
                    template=template,
                    deadline_ms=deadline_ms,
                    arrival_ms=start,
                )
                pending.append((shard, request_id, None))
            except QueryRejected as exc:
                if tel.enabled:
                    tel.inc(
                        "fabric.population.fleet_shed", reason=exc.reason
                    )
                pending.append((shard, None, exc.reason))

        answers: list[FleetAnswer] = []
        finish = start
        total_nodes = 0
        covered_nodes = 0.0
        n_rows = 0
        crc = zlib.crc32(b"population")
        for shard, request_id, shed_reason in pending:
            total_nodes += shard.n_nodes
            if request_id is None:
                answers.append(
                    FleetAnswer(
                        fleet_id=shard.fleet_id,
                        n_nodes=shard.n_nodes,
                        shed_reason=shed_reason,
                    )
                )
                continue
            shard.server.drain()
            self._harvest(shard)
            response = next(
                r
                for r in reversed(shard.server.responses)
                if r.request_id == request_id
            )
            answers.append(
                FleetAnswer(
                    fleet_id=shard.fleet_id,
                    n_nodes=shard.n_nodes,
                    response=response,
                )
            )
            finish = max(finish, response.finish_ms)
            covered_nodes += response.coverage * shard.n_nodes
            n_rows += response.n_rows
            crc = zlib.crc32(
                f"{shard.fleet_id}:{response.rows_crc:08x}:".encode(), crc
            )

        gather = GATHER_BASE_MS + GATHER_PER_FLEET_MS * len(targets)
        result = PopulationResult(
            kind=spec.kind,
            start_ms=start,
            finish_ms=finish + gather,
            gather_ms=gather,
            coverage=covered_nodes / total_nodes if total_nodes else 0.0,
            n_rows=n_rows,
            rows_crc=crc,
            min_coverage=min_coverage,
            answers=tuple(answers),
        )
        self.population_results.append(result)
        self.population_log.append(result.log_line())
        if tel.enabled:
            tel.inc("fabric.population.completed", kind=spec.kind)
            tel.observe("fabric.population.latency_ms", result.latency_ms)
            tel.observe("fabric.population.coverage", result.coverage)
            if not result.sla_met:
                tel.inc("fabric.population.sla_violation", kind=spec.kind)
        return result
