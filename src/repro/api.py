"""The stable high-level facade: build a fleet, run queries, run sessions.

Examples, notebooks, and the README quick-start import from here instead
of reaching five modules deep::

    from repro.api import build_system, run_query

    system = build_system(n_nodes=4, electrodes_per_node=8)
    system.ingest(windows)
    result = run_query(system, "q3", (0, 1))

Many concurrent callers go through the serving layer instead:
:func:`serve_session` builds a fleet behind a :class:`QueryServer` and
drives an open-loop request stream through admission control and
coalescing.

Multi-tenant deployments go one level up: :func:`build_fabric` runs
many independent fleets behind one tenant-aware serving plane,
:func:`run_fleet_query` routes a tenant's query to its owning fleet,
:func:`run_population_query` scatter-gathers one query across every
fleet with partial-coverage merge, and :func:`fabric_session` drives a
multi-tenant load through the whole fabric.

:func:`run_query` checks its ``window_range``: ``0 <= start < stop`` or
:class:`~repro.errors.ConfigurationError`.  The fabric queries cover
each fleet's full ingested range.

The deprecation policy covers exactly ``__all__``: the seven entry
points and the types their signatures take, return or raise.  Every
other name (chaos, breakers, health, partitions, the scheduler, fabric
internals) is imported from the subpackage that defines it, and those
deeper paths may shuffle between releases.
"""

from __future__ import annotations

import numpy as np

from repro.apps.queries import DistributedQueryResult, QuerySpec
from repro.core.system import ScaloSystem
from repro.errors import QueryRejected, ScaloError
from repro.fabric.fabric import FabricConfig, FleetFabric, PopulationResult
from repro.fabric.loadgen import FabricLoadConfig, FabricReport, fabric_session
from repro.serving.loadgen import LoadGenConfig, ServeReport, serve_session
from repro.serving.server import QueryResponse, QueryServer, ServerConfig
from repro.telemetry import NULL_TELEMETRY, Telemetry, TelemetryLike
from repro.units import WINDOW_MS

__all__ = [
    # single-tenant entry points
    "build_system",
    "run_query",
    "serve_session",
    # multi-tenant entry points
    "build_fabric",
    "run_fleet_query",
    "run_population_query",
    "fabric_session",
    # the types those entry points take, return or raise
    "DistributedQueryResult",
    "FabricConfig",
    "FabricLoadConfig",
    "FabricReport",
    "FleetFabric",
    "LoadGenConfig",
    "NULL_TELEMETRY",
    "PopulationResult",
    "QueryRejected",
    "QueryResponse",
    "QueryServer",
    "QuerySpec",
    "ScaloError",
    "ScaloSystem",
    "ServeReport",
    "ServerConfig",
    "Telemetry",
    "TelemetryLike",
    "WINDOW_MS",
]


def build_system(
    n_nodes: int = 4,
    electrodes_per_node: int = 8,
    *,
    seed: int = 0,
    telemetry: TelemetryLike = NULL_TELEMETRY,
) -> ScaloSystem:
    """Assemble a :class:`~repro.core.system.ScaloSystem` fleet.

    Args:
        n_nodes: implant count.
        electrodes_per_node: electrodes per implant.
        seed: fleet-wide seed (network jitter, clock offsets).
        telemetry: optional live :class:`~repro.telemetry.Telemetry`
            handle; metrics and spans from every layer land on it.
    """
    return ScaloSystem(
        n_nodes=n_nodes,
        electrodes_per_node=electrodes_per_node,
        seed=seed,
        telemetry=telemetry,
    )


def run_query(
    system: ScaloSystem,
    kind: str,
    window_range: tuple[int, int],
    *,
    template: np.ndarray | None = None,
    use_hash: bool = True,
    time_range_ms: float | None = None,
    seizure_flags: dict[int, set[int]] | None = None,
    distributed: bool = False,
) -> DistributedQueryResult:
    """Run one interactive query (Q1/Q2/Q3) over the fleet.

    Args:
        system: the fleet to query.
        kind: ``"q1"`` (seizure-flagged windows), ``"q2"`` (windows
            matching ``template``), or ``"q3"`` (everything in range).
        window_range: half-open ``[start, stop)`` window-index range,
            ``0 <= start < stop``.
        template: the probe window (required for Q2).
        use_hash: Q2 only — hash filter (default) vs exact DTW.
        time_range_ms: time span the query covers; derived from
            ``window_range`` when omitted.
        seizure_flags: per-node window indexes the local detector
            flagged (what Q1 filters on).
        distributed: disseminate the query over the radio network and
            collect per-node responses instead of scanning storage
            coordinator-side.

    Returns:
        A :class:`~repro.apps.queries.DistributedQueryResult` — matched
        rows plus degraded/coverage accounting for dead nodes.
    """
    spec = _resolve_spec(kind, window_range, time_range_ms, use_hash=use_hash)
    if distributed:
        return system.query_distributed(
            spec, window_range, template=template, seizure_flags=seizure_flags
        )
    return system.query(
        spec, window_range, template=template, seizure_flags=seizure_flags
    )


def build_fabric(
    n_fleets: int = 4,
    nodes_per_fleet: int = 4,
    seed: int = 0,
) -> FleetFabric:
    """Assemble a multi-tenant :class:`~repro.fabric.fabric.FleetFabric`.

    Each of the ``n_fleets`` fleets is an independent, pre-ingested
    :class:`ScaloSystem` seeded ``seed + fleet_id`` behind its own
    tenant-isolated :class:`~repro.serving.server.QueryServer`; tenants route
    to fleets via a consistent-hash shard map.

    Args:
        n_fleets: fleets (patient sites) in the fabric.
        nodes_per_fleet: implant count per fleet.
        seed: fabric seed; fleet ``i`` runs at ``seed + i``.

    Each implant has :class:`~repro.fabric.fabric.FabricConfig`'s
    electrode count and pre-ingested window count.
    """
    config = FabricConfig(
        n_fleets=n_fleets, nodes_per_fleet=nodes_per_fleet, seed=seed
    )
    return FleetFabric(config=config)


def _resolve_spec(
    kind: str | QuerySpec,
    window_range: tuple[int, int] | None,
    time_range_ms: float | None,
    *,
    use_hash: bool = True,
) -> QuerySpec:
    """Check ``window_range`` and build the query's :class:`QuerySpec`.

    A pre-built spec passes through; otherwise ``time_range_ms`` defaults
    to the span of ``window_range`` (one window when no range is given).
    """
    if window_range is not None:
        start, stop = window_range
        if not 0 <= start < stop:
            # imported here so it stays out of the facade's public names
            from repro.errors import ConfigurationError

            raise ConfigurationError(
                f"window range {start}:{stop} is empty or negative; "
                "expected START:STOP with 0 <= START < STOP"
            )
    if isinstance(kind, QuerySpec):
        return kind
    if time_range_ms is None:
        n_windows = 1 if window_range is None else stop - start
        time_range_ms = n_windows * WINDOW_MS
    return QuerySpec(kind=kind, time_range_ms=time_range_ms, use_hash=use_hash)


def run_fleet_query(
    fabric: FleetFabric, tenant: str, kind: str | QuerySpec
) -> QueryResponse:
    """Run one tenant query through its owning fleet's serving plane.

    Routes via the shard map, submits through admission control (a shed
    raises :class:`~repro.errors.QueryRejected` with the fleet's
    reason), dispatches, and returns the tenant's
    :class:`~repro.serving.server.QueryResponse`.  ``kind`` is a query kind
    string or a pre-built :class:`QuerySpec`; the query covers the
    fleet's full ingested range.
    """
    fleet_id, request_id = fabric.submit(tenant, _resolve_spec(kind, None, None))
    shard = fabric.shards[fleet_id]
    shard.server.drain()
    return next(
        r
        for r in reversed(shard.server.responses)
        if r.request_id == request_id
    )


def run_population_query(
    fabric: FleetFabric,
    kind: str | QuerySpec,
    *,
    template: np.ndarray | None = None,
    min_coverage: float = 0.0,
) -> PopulationResult:
    """Scatter one query across fleets, gather with coverage merge.

    The cross-fleet entry point: submits through every targeted fleet's
    serving plane concurrently and merges with node-weighted partial
    coverage (a shed or degraded fleet lowers ``coverage`` instead of
    failing the query — gate on ``result.sla_met``).  The query covers
    each fleet's full ingested range.
    """
    return fabric.population_query(
        _resolve_spec(kind, None, None),
        template=template,
        min_coverage=min_coverage,
    )
