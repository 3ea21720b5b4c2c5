"""Multi-tenant fleet fabric: sharded fleets, one tenant-aware plane.

One :class:`FleetFabric` runs many independent patient fleets (each its
own :class:`~repro.core.system.ScaloSystem` + query server), routes
tenants to fleets via the consistent-hash :class:`ShardMap`, isolates
tenants at admission (token buckets, pending-queue quotas, client-
partitioned result retention), and answers cross-fleet population
queries by scatter-gather with partial-coverage merge.  See DESIGN.md
"Fabric model".
"""

# bench/workloads.py imports these two configs from the package itself.
from repro.fabric.fabric import FabricConfig
from repro.fabric.loadgen import FabricLoadConfig

__all__ = ["FabricConfig", "FabricLoadConfig"]
