"""``repro.api`` is the one public facade; the root package imports nothing.

The facade's contract is small on purpose: the seven entry points and
the types their signatures take, return or raise.  Every other name is
imported from the subpackage that defines it.  The audits here are
mechanical: ``__all__`` lists exactly the public non-module attributes,
every name the README, the examples, ``bench/`` and the tests import
from ``repro.api`` is present, the facade checks and honours window
ranges, and each package imports on its own.
"""

import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import api
from repro.errors import ConfigurationError

SRC = str(Path(__file__).resolve().parent.parent / "src")

ENTRY_POINTS = {
    "build_system", "run_query", "serve_session",
    "build_fabric", "run_fleet_query", "run_population_query",
    "fabric_session",
}

SIGNATURE_TYPES = {
    "ScaloSystem", "QuerySpec", "DistributedQueryResult", "FleetFabric",
    "FabricConfig", "FabricLoadConfig", "FabricReport", "PopulationResult",
    "QueryServer", "ServerConfig", "LoadGenConfig", "ServeReport",
    "QueryResponse", "Telemetry", "TelemetryLike", "NULL_TELEMETRY",
    "ScaloError", "QueryRejected", "WINDOW_MS",
}


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


def test_api_holds_only_entry_points_and_their_signature_types():
    assert set(api.__all__) == ENTRY_POINTS | SIGNATURE_TYPES
    assert len(api.__all__) <= 26
    for name in ENTRY_POINTS:
        assert callable(getattr(api, name))


def test_api_exports_what_callers_import():
    required = {
        # README quick-start, serving and fabric snippets
        "build_system", "run_query", "serve_session", "QueryServer",
        "build_fabric", "run_fleet_query", "run_population_query",
        # examples/
        "Telemetry",
    }
    missing = required - set(api.__all__)
    assert not missing, f"facade lost public names: {sorted(missing)}"


def test_every_package_imports_on_its_own():
    """Each subpackage, ``repro.api`` and ``repro.__main__`` import cold.

    One subprocess clears every ``repro*`` module before each import, so
    an import cycle the old eager root package used to hide fails here
    for the package that has it.
    """
    script = """
import pkgutil, sys
import repro
loaded = sorted(m for m in sys.modules if m.startswith("repro"))
assert loaded == ["repro"], loaded
names = [f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__)]
for name in names:
    for module in [m for m in sys.modules if m.startswith("repro")]:
        del sys.modules[module]
    __import__(name)
print(len(names))
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    # every subpackage plus api, errors, units and __main__
    assert int(proc.stdout) >= 20


def test_storage_path_never_imports_scipy():
    """Only a multi-flow LP solve loads scipy; building, storing and
    reading do not."""
    script = """
import sys
import numpy as np
from repro.api import build_system, run_query
system = build_system(n_nodes=2, electrodes_per_node=2, seed=0)
system.ingest(np.random.default_rng(0).normal(size=(2, 2, 120)).cumsum(axis=2))
stored = system.nodes[0].storage.read_window(0, 0)
assert stored.shape == (120,), stored.shape
assert run_query(system, "q3", (0, 1)).rows
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded[:5]
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.fixture(scope="module")
def fabric():
    return api.build_fabric(n_fleets=2, nodes_per_fleet=2, seed=0)


@pytest.fixture(scope="module")
def system():
    system = api.build_system(n_nodes=2, electrodes_per_node=2, seed=0)
    rng = np.random.default_rng(0)
    for _ in range(3):
        system.ingest(rng.normal(size=(2, 2, 120)).cumsum(axis=2))
    return system


def _query(entry, system, fabric, window_range):
    if entry == "run_query":
        return api.run_query(system, "q3", window_range).rows
    if entry == "run_fleet_query":
        return api.run_fleet_query(fabric, "t00", "q3", window_range).n_rows
    return api.run_population_query(fabric, "q3", window_range).n_rows


@pytest.mark.parametrize("entry", [
    "run_query", "run_fleet_query", "run_population_query",
])
@pytest.mark.parametrize("window_range", [
    pytest.param((0, 1), id="valid"),
    pytest.param((2, 1), id="reversed"),
    pytest.param((1, 1), id="empty"),
    pytest.param((-5, 2), id="negative"),
])
def test_facade_checks_window_range(entry, window_range, system, fabric):
    start, stop = window_range
    if 0 <= start < stop:
        assert _query(entry, system, fabric, window_range)
        return
    with pytest.raises(ConfigurationError, match="empty or negative"):
        _query(entry, system, fabric, window_range)


def test_population_query_honours_window_range(fabric):
    per_fleet = api.run_fleet_query(fabric, "t00", "q3", (0, 1)).n_rows
    assert per_fleet == 16  # 2 nodes x 8 electrodes x 1 window
    population = api.run_population_query(fabric, "q3", (0, 1))
    assert population.n_fleets == 2
    assert population.n_rows == 2 * per_fleet == 32
    assert api.run_population_query(fabric, "q3").n_rows == 128
