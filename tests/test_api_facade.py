"""The ``repro.api`` facade must re-export the whole public surface.

PRs 5-9 each grew a subsystem (serving, chaos, health, partition
coordination, the fleet fabric); the facade's contract is that every
public type a user needs is importable from ``repro.api`` without
knowing the internal package layout.  The audit is mechanical:
``__all__`` must list exactly the public non-module attributes, every
name must resolve, and the load-bearing types from each era must be
present by name.
"""

import inspect

import repro
from repro import api


def _public_attrs(module) -> set[str]:
    return {
        name
        for name, value in vars(module).items()
        if not name.startswith("_")
        and not inspect.ismodule(value)
        and name != "annotations"
    }


def test_api_all_matches_public_attributes():
    declared = set(api.__all__)
    actual = _public_attrs(api)
    assert declared == actual, (
        f"missing from __all__: {sorted(actual - declared)}; "
        f"listed but absent: {sorted(declared - actual)}"
    )


def test_api_all_names_resolve_and_are_unique():
    assert len(api.__all__) == len(set(api.__all__))
    for name in api.__all__:
        assert getattr(api, name) is not None


def test_api_exports_every_era():
    required = {
        # core (PRs 1-4)
        "ScaloSystem", "QuerySpec", "QueryCostModel", "WINDOW_MS",
        "ScaloError", "build_system", "run_query",
        # serving (PR 5)
        "QueryServer", "ServerConfig", "AdmissionController", "TokenBucket",
        "LoadGenConfig", "ServeReport", "serve_session", "final_responses",
        "percentile",
        # chaos (PR 6)
        "ChaosConfig", "StormLevel", "FAULT_PRESETS", "chaos_sweep",
        "run_storm", "CircuitBreaker", "BrownoutController", "RetryPolicy",
        # health (PR 7)
        "HealthEngine", "SLO", "SLOEngine", "QuantileSketch",
        "DEFAULT_SERVING_SLOS", "FlightRecorder", "AnomalyDetector",
        # partition coordination (PR 8)
        "PartitionMatrix", "SPLIT_MODES", "FailoverManager",
        "WriteAheadJournal", "FaultPlan", "HealthMonitor",
        # fabric (PR 9)
        "FleetFabric", "FabricConfig", "ShardMap", "FabricLoadConfig",
        "fabric_session", "run_isolation_gate", "tenant_slos",
        "build_fabric", "run_fleet_query", "run_population_query",
        "PopulationResult",
    }
    missing = required - set(api.__all__)
    assert not missing, f"facade lost public names: {sorted(missing)}"


def test_root_package_exports_fabric_entry_points():
    for name in (
        "FleetFabric", "FabricConfig", "FabricLoadConfig", "FabricReport",
        "ShardMap", "fabric_session", "run_isolation_gate",
    ):
        assert name in repro.__all__
        assert getattr(repro, name) is not None


def test_root_package_all_resolves():
    for name in repro.__all__:
        assert getattr(repro, name) is not None
