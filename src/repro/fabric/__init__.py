"""Multi-tenant fleet fabric: sharded fleets, one tenant-aware plane.

One :class:`FleetFabric` runs many independent patient fleets (each its
own :class:`~repro.core.system.ScaloSystem` + query server), routes
tenants to fleets via the consistent-hash :class:`ShardMap`, isolates
tenants at admission (token buckets, pending-queue quotas, client-
partitioned result retention), and answers cross-fleet population
queries by scatter-gather with partial-coverage merge.  See DESIGN.md
"Fabric model".
"""

from __future__ import annotations

from repro.fabric.fabric import (
    POPULATION_CLIENT,
    FabricConfig,
    FleetAnswer,
    FleetFabric,
    FleetShard,
    PopulationResult,
    build_fleet_shard,
)
from repro.fabric.isolation import (
    IsolationConfig,
    IsolationResult,
    choose_pair,
    run_isolation_gate,
)
from repro.fabric.loadgen import (
    FabricLoadConfig,
    FabricReport,
    TenantStats,
    fabric_session,
    generate_tenant_arrivals,
    tenant_name,
)
from repro.fabric.shardmap import ShardMap
from repro.fabric.slos import tenant_slos

__all__ = [
    "FabricConfig",
    "FabricLoadConfig",
    "FabricReport",
    "FleetAnswer",
    "FleetFabric",
    "FleetShard",
    "IsolationConfig",
    "IsolationResult",
    "POPULATION_CLIENT",
    "PopulationResult",
    "ShardMap",
    "TenantStats",
    "build_fleet_shard",
    "choose_pair",
    "fabric_session",
    "generate_tenant_arrivals",
    "run_isolation_gate",
    "tenant_name",
    "tenant_slos",
]
