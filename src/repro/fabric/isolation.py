"""The noisy-neighbour isolation gate.

The fabric's isolation claim is concrete: a tenant flooding at **10×**
its fair rate must not hurt a well-behaved tenant *on the same fleet* —
the victim's p99 latency may degrade by at most a small tolerance.
This module turns that claim into a deterministic gate:

1. run a baseline — every tenant at 1×;
2. rerun with one tenant at 10× (per-tenant RNG streams mean every
   other tenant's offered timeline is byte-identical to the baseline);
3. compare the victim's latency distribution, and rerun the noisy
   scenario once more to assert the whole fabric response log is
   byte-identical per seed.

The victim is chosen deterministically as the first tenant sharing the
noisy tenant's fleet under the shard map — isolation across fleets is
trivially structural (separate servers); sharing a fleet is where the
admission quota and token bucket have to earn it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import ConfigurationError
from repro.fabric.fabric import FabricConfig
from repro.fabric.loadgen import FabricLoadConfig, FabricReport, fabric_session
from repro.serving.server import ServerConfig


#: A small two-fleet fabric with a deliberately tight admission plane.
FABRIC_CONFIG = FabricConfig(
    n_fleets=2,
    nodes_per_fleet=2,
    electrodes=2,
    n_windows=3,
    server_config=ServerConfig(
        bucket_capacity=4.0,
        bucket_refill_per_s=4.0,
        per_client_queue_quota=2,
    ),
)
#: The baseline load: six tenants at 1x, two of them sharing a fleet.
LOAD_CONFIG = FabricLoadConfig(
    n_tenants=6,
    requests_per_tenant=16,
    offered_qps=2.0,
    seed=0,
)
#: the noisy tenant's rate multiplier (offers and rate both scale)
NOISE_MULTIPLIER = 10.0
#: allowed victim p99 degradation (0.10 = +10%)
P99_TOLERANCE = 0.10


@dataclass
class IsolationResult:
    """The gate's evidence, both clauses."""

    noisy_tenant: str
    victim_tenant: str
    shared_fleet: int
    noise_multiplier: float
    p99_tolerance: float
    baseline_victim_p99_ms: float
    noisy_victim_p99_ms: float
    noisy_offered: int
    noisy_shed: int
    noisy_shed_by_reason: dict[str, int]
    byte_identical: bool
    baseline: FabricReport = field(repr=False, default=None)
    noisy: FabricReport = field(repr=False, default=None)

    @property
    def p99_degradation(self) -> float:
        """Relative victim p99 growth under noise (0.0 = unchanged)."""
        if self.baseline_victim_p99_ms <= 0:
            return 0.0
        return (
            self.noisy_victim_p99_ms / self.baseline_victim_p99_ms - 1.0
        )

    @property
    def p99_ok(self) -> bool:
        return self.p99_degradation <= self.p99_tolerance

    @property
    def passed(self) -> bool:
        return self.p99_ok and self.byte_identical

    def as_dict(self) -> dict:
        return {
            "noisy_tenant": self.noisy_tenant,
            "victim_tenant": self.victim_tenant,
            "shared_fleet": self.shared_fleet,
            "noise_multiplier": self.noise_multiplier,
            "p99_tolerance": self.p99_tolerance,
            "baseline_victim_p99_ms": self.baseline_victim_p99_ms,
            "noisy_victim_p99_ms": self.noisy_victim_p99_ms,
            "p99_degradation": self.p99_degradation,
            "noisy_offered": self.noisy_offered,
            "noisy_shed": self.noisy_shed,
            "noisy_shed_by_reason": self.noisy_shed_by_reason,
            "byte_identical": self.byte_identical,
            "passed": self.passed,
        }


def choose_pair(
    config: FabricConfig, load: FabricLoadConfig
) -> tuple[str, str, int]:
    """The deterministic (noisy, victim, fleet) pick: first shared fleet."""
    shard_map = config.shard_map()
    by_fleet: dict[int, list[str]] = {}
    for tenant in load.tenants:
        by_fleet.setdefault(shard_map.owner(tenant), []).append(tenant)
    for fleet_id in sorted(by_fleet):
        tenants = by_fleet[fleet_id]
        if len(tenants) >= 2:
            return tenants[0], tenants[1], fleet_id
    raise ConfigurationError(
        "no two tenants share a fleet; add tenants or remove fleets"
    )


def run_isolation_gate() -> IsolationResult:
    """Run baseline, noisy, and repeat-noisy; fold into the gate verdict."""
    fabric, load = FABRIC_CONFIG, LOAD_CONFIG
    noisy_tenant, victim, fleet_id = choose_pair(fabric, load)

    noisy_load = replace(
        load,
        rate_multipliers={
            **load.rate_multipliers,
            noisy_tenant: NOISE_MULTIPLIER,
        },
    )
    _, baseline = fabric_session(config=fabric, load=load)
    _, noisy = fabric_session(config=fabric, load=noisy_load)
    _, repeat = fabric_session(config=fabric, load=noisy_load)

    return IsolationResult(
        noisy_tenant=noisy_tenant,
        victim_tenant=victim,
        shared_fleet=fleet_id,
        noise_multiplier=NOISE_MULTIPLIER,
        p99_tolerance=P99_TOLERANCE,
        baseline_victim_p99_ms=baseline.tenants[victim].p99_latency_ms,
        noisy_victim_p99_ms=noisy.tenants[victim].p99_latency_ms,
        noisy_offered=noisy.tenants[noisy_tenant].offered,
        noisy_shed=noisy.tenants[noisy_tenant].shed,
        noisy_shed_by_reason=noisy.tenants[noisy_tenant].shed_by_reason,
        byte_identical=noisy.combined_log() == repeat.combined_log(),
        baseline=baseline,
        noisy=noisy,
    )
