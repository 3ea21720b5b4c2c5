"""The multi-tenant fleet fabric: routing, isolation, population queries.

The load-bearing properties:

* the consistent-hash shard map is deterministic, total, and moves the
  minimum set of tenants on fleet add/remove;
* a 1-tenant fabric is byte-identical to driving the underlying
  ``ScaloSystem`` through a ``QueryServer`` directly at the same seed —
  the fabric layer adds routing and accounting, never perturbation;
* tenant isolation holds mechanically (pending-queue quota sheds with
  reason ``tenant_quota``) and end-to-end (the noisy-neighbour gate in
  :mod:`repro.fabric.isolation` passes at its defaults);
* population queries merge partial coverage node-weighted: a dead node
  or a shed fleet lowers coverage instead of failing the query.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.queries import QuerySpec
from repro.errors import ConfigurationError, QueryRejected
from repro.fabric import fabric as fabric_module
from repro.fabric import isolation
from repro.fabric.fabric import FabricConfig, FleetFabric, build_fleet_shard
from repro.fabric.isolation import run_isolation_gate
from repro.fabric.loadgen import (
    FabricLoadConfig,
    fabric_session,
    generate_tenant_arrivals,
)
from repro.fabric.shardmap import ShardMap
from repro.fabric.slos import tenant_slos
from repro.serving.server import ServerConfig

TENANTS = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126),
    min_size=1,
    max_size=12,
)


def _small_config(**overrides) -> FabricConfig:
    defaults = dict(
        n_fleets=2, nodes_per_fleet=2, electrodes=2, n_windows=3, seed=0
    )
    defaults.update(overrides)
    return FabricConfig(**defaults)


# -- shard map -------------------------------------------------------------------


@given(st.lists(TENANTS, min_size=1, max_size=30), st.integers(0, 5))
@settings(max_examples=50, deadline=None)
def test_routing_deterministic_and_total(tenants, seed):
    shard_map = ShardMap(fleet_ids=(0, 1, 2, 3), seed=seed)
    again = ShardMap(fleet_ids=(3, 1, 0, 2), seed=seed)
    for tenant in tenants:
        owner = shard_map.owner(tenant)
        assert owner in shard_map.fleet_ids
        # same seed + same fleet set => same owner, insertion order moot
        assert again.owner(tenant) == owner
        assert shard_map.owner(tenant) == owner  # repeated lookups stable


@given(st.lists(TENANTS, min_size=1, max_size=30, unique=True))
@settings(max_examples=50, deadline=None)
def test_add_fleet_moves_tenants_only_to_the_new_fleet(tenants):
    before = ShardMap(fleet_ids=(0, 1, 2), seed=7)
    after = ShardMap(fleet_ids=(0, 1, 2, 3), seed=7)
    for tenant in tenants:
        if after.owner(tenant) != before.owner(tenant):
            assert after.owner(tenant) == 3


@given(st.lists(TENANTS, min_size=1, max_size=30, unique=True))
@settings(max_examples=50, deadline=None)
def test_remove_fleet_moves_only_its_tenants(tenants):
    before = ShardMap(fleet_ids=(0, 1, 2, 3), seed=7)
    after = ShardMap(fleet_ids=(0, 1, 3), seed=7)
    for tenant in tenants:
        assert after.owner(tenant) != 2
        if before.owner(tenant) != 2:
            assert after.owner(tenant) == before.owner(tenant)


# -- the 1-tenant byte-identity anchor -------------------------------------------


@pytest.mark.parametrize(
    "n_fleets, n_tenants, rate_multipliers",
    [(1, 1, {}), (2, 4, {"t01": 3.0})],
    ids=["1fleet-1tenant", "2fleets-4tenants-3x"],
)
def test_one_tenant_fabric_matches_direct_server(
    n_fleets, n_tenants, rate_multipliers
):
    """Fabric == ScaloSystem + QueryServer per fleet, driven directly.

    Same seed, same arrivals, same server config: every fleet's response
    log must be byte-identical to a hand-driven server's.  The reference
    loop below merges the tenant streams in ``(at_ms, tenant)`` order
    itself and never goes through the serving layer's open-loop driver.
    This is the contract that lets every single-fleet serving result
    carry over to the fabric unchanged.
    """
    config = _small_config(n_fleets=n_fleets)
    load = FabricLoadConfig(
        n_tenants=n_tenants,
        requests_per_tenant=12,
        offered_qps=6.0,
        seed=0,
        rate_multipliers=rate_multipliers,
    )
    _, report = fabric_session(config=config, load=load)

    # the underlying systems, directly
    shards = [build_fleet_shard(f, config) for f in range(n_fleets)]
    owner = config.shard_map().owner
    offers = sorted(
        (arrival.at_ms, tenant, seq, arrival)
        for tenant, stream in generate_tenant_arrivals(load).items()
        for seq, arrival in enumerate(stream)
    )
    for at_ms, tenant, _, arrival in offers:
        for shard in shards:
            shard.server.run_until(at_ms)
        shard = shards[owner(tenant)]
        template = (
            shard.templates[arrival.template_index % len(shard.templates)]
            if arrival.template_index is not None
            else None
        )
        try:
            shard.server.submit(
                tenant,
                arrival.spec,
                shard.window_range,
                template=template,
                deadline_ms=250.0,  # run_open_loop's defaults
                arrival_ms=at_ms,
                min_coverage=0.0,
            )
        except QueryRejected:
            pass
    for shard in shards:
        shard.server.drain()

    assert report.offered == len(offers)
    for fleet_id, shard in enumerate(shards):
        assert report.fleet_logs[fleet_id] == shard.server.response_log()
        assert report.fleet_logs[fleet_id]  # and it is not trivially empty


def test_fabric_run_is_deterministic_per_seed():
    config = _small_config()
    load = FabricLoadConfig(n_tenants=4, requests_per_tenant=6, seed=0)
    _, first = fabric_session(config=config, load=load)
    _, second = fabric_session(config=config, load=load)
    assert first.combined_log() == second.combined_log()
    assert first.routing == second.routing

    _, other = fabric_session(
        config=_small_config(seed=1),
        load=FabricLoadConfig(n_tenants=4, requests_per_tenant=6, seed=1),
    )
    assert other.combined_log() != first.combined_log()


# -- tenant isolation ------------------------------------------------------------


def test_tenant_queue_quota_sheds_with_tenant_quota_reason(monkeypatch):
    monkeypatch.setattr(fabric_module, "TENANT_QUEUE_QUOTA", 2)
    fabric = FleetFabric(config=_small_config())
    tenant = "hog"
    spec = QuerySpec(kind="q3", time_range_ms=50.0)
    for _ in range(2):
        fabric.submit(tenant, spec, arrival_ms=0.0)
    with pytest.raises(QueryRejected) as excinfo:
        fabric.submit(tenant, spec, arrival_ms=0.0)
    assert excinfo.value.reason == "tenant_quota"
    # another tenant on the same fleet is still admitted
    other = next(
        name
        for name in (f"probe{i}" for i in range(100))
        if fabric.fleet_for(name) == fabric.fleet_for(tenant)
    )
    fabric.submit(other, spec, arrival_ms=0.0)


def test_isolation_noisy_run_keeps_base_rate_multipliers(monkeypatch):
    """Only the noisy tenant's timeline may change between the runs."""
    load = FabricLoadConfig(
        n_tenants=6,
        requests_per_tenant=16,
        offered_qps=2.0,
        rate_multipliers={"t00": 2.0},
    )
    monkeypatch.setattr(isolation, "LOAD_CONFIG", load)
    result = run_isolation_gate()
    assert result.noisy_tenant != "t00"
    assert result.baseline.tenants["t00"].offered == 32
    for tenant in load.tenants:
        if tenant != result.noisy_tenant:
            assert (
                result.noisy.tenants[tenant].offered
                == result.baseline.tenants[tenant].offered
            ), tenant


def test_isolation_gate_passes_at_defaults():
    result = run_isolation_gate()
    assert result.byte_identical, "noisy runs must be deterministic per seed"
    assert result.p99_degradation <= 0.10
    assert result.passed
    summary = result.as_dict()
    assert summary["noisy_tenant"] != summary["victim_tenant"]
    assert summary["noisy_shed"] > 0, "the 10x flood must actually be clamped"


# -- population queries ----------------------------------------------------------


def _degraded(result) -> bool:
    """A fleet shed, or answered with less than full coverage."""
    return any(not a.ok or a.response.degraded for a in result.answers)


def test_population_query_full_coverage():
    fabric = FleetFabric(config=_small_config())
    result = fabric.population_query(QuerySpec(kind="q1", time_range_ms=50.0))
    assert result.n_fleets == 2
    assert result.coverage == pytest.approx(1.0)
    assert result.sla_met and not _degraded(result)
    assert result.shed_fleets == ()
    assert result.gather_ms == pytest.approx(5.0 + 0.05 * 2)
    assert result.latency_ms >= result.gather_ms


def test_population_query_dead_node_lowers_coverage_node_weighted():
    fabric = FleetFabric(config=_small_config())
    fabric.shards[0].system.fail_node(0)
    fabric.shards[0].server.set_dead_nodes({0})  # health view reaches serving
    result = fabric.population_query(QuerySpec(kind="q1", time_range_ms=50.0))
    per_fleet = {a.fleet_id: a for a in result.answers}
    assert per_fleet[0].response.coverage < 1.0
    assert per_fleet[1].response.coverage == pytest.approx(1.0)
    expected = sum(
        a.response.coverage * a.n_nodes for a in result.answers
    ) / sum(a.n_nodes for a in result.answers)
    assert result.coverage == pytest.approx(expected)
    assert 0.0 < result.coverage < 1.0
    assert _degraded(result)


def test_population_query_shed_fleet_counts_as_zero_coverage():
    config = _small_config(
        server_config=ServerConfig(max_queue=1),
    )
    fabric = FleetFabric(config=config)
    # jam fleet 0's admission queue so the scatter to it sheds
    fabric.shards[0].server.submit(
        "jam", QuerySpec(kind="q3", time_range_ms=50.0),
        fabric.shards[0].window_range, arrival_ms=0.0,
    )
    result = fabric.population_query(
        QuerySpec(kind="q1", time_range_ms=50.0), min_coverage=0.9
    )
    assert result.shed_fleets == (0,)
    assert result.coverage == pytest.approx(0.5)  # 2 of 4 nodes answered
    assert not result.sla_met and _degraded(result)


def test_population_query_validates_inputs():
    fabric = FleetFabric(config=_small_config())
    spec = QuerySpec(kind="q1", time_range_ms=50.0)
    with pytest.raises(ConfigurationError):
        fabric.population_query(spec, min_coverage=1.5)


# -- per-tenant accounting and SLOs ----------------------------------------------


def test_fabric_session_books_per_tenant_counters_and_slos():
    from repro.telemetry import Telemetry
    from repro.telemetry.health.engine import (
        DEFAULT_SERVING_SLOS,
        HealthEngine,
    )

    load = FabricLoadConfig(n_tenants=3, requests_per_tenant=4, seed=0)
    telemetry = Telemetry()
    health = HealthEngine(
        telemetry,
        slos=tuple(DEFAULT_SERVING_SLOS) + tenant_slos(load.tenants),
    )
    _, report = fabric_session(
        config=_small_config(), load=load, telemetry=telemetry, health=health
    )
    reg = telemetry.registry
    for tenant, stats in report.tenants.items():
        assert reg.counter(f"fabric.{tenant}.submitted") == stats.offered
        assert reg.counter(f"fabric.{tenant}.completed") == stats.completed
        assert reg.counter(f"fabric.{tenant}.shed") == stats.shed
    verdicts = {s["slo"] for s in health.report()["slos"]}
    for tenant in load.tenants:
        assert f"fabric-{tenant}-availability" in verdicts
        assert f"fabric-{tenant}-deadline" in verdicts
    assert report.offered == sum(s.offered for s in report.tenants.values())


# -- the repro.api facade --------------------------------------------------------


def test_api_facade_fleet_and_population_queries():
    from repro import api

    fabric = api.build_fabric(n_fleets=2, nodes_per_fleet=2, seed=0)
    response = api.run_fleet_query(fabric, "t00", "q1")
    assert response.client == "t00"
    assert response.coverage == pytest.approx(1.0)

    template = fabric.shards[fabric.fleet_ids[0]].templates[0]
    matched = api.run_population_query(fabric, "q2", template=template)
    assert matched.n_fleets == 2

    population = api.run_population_query(fabric, "q3")
    assert population.n_fleets == 2
    assert population.coverage == pytest.approx(1.0)
    # 2 fleets x 2 nodes x 8 electrodes x 4 windows: each fleet's full range
    assert population.n_rows == 128


def test_api_legacy_entry_points_warn_nothing():
    import warnings

    from repro import api

    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        system = api.build_system(n_nodes=2, electrodes_per_node=2, seed=0)
        windows = np.zeros((2, 2, 120))
        system.ingest(windows)
        api.run_query(system, "q3", (0, 1))
