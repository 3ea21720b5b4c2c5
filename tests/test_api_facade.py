"""``repro.api`` is the one public facade; the root package imports nothing.

The facade's contract is small on purpose: the seven entry points and
the types their signatures take, return or raise.  Every other name is
imported from the module that defines it.  The audits here are
mechanical: ``__all__`` lists exactly the public non-module attributes,
every name the README, the examples, ``bench/`` and the tests import
from ``repro.api`` is present, the facade checks and honours window
ranges, and each package imports on its own.
"""

import ast
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


def test_cli_module_imports_no_subsystem_at_top():
    """``repro.__main__`` loads only ``errors`` and ``units`` up front;
    each command imports its subsystem when it runs."""
    script = """
import sys
import repro.__main__
print(" ".join(sorted(m for m in sys.modules if m.startswith("repro"))))
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [
        "repro", "repro.__main__", "repro.errors", "repro.units",
    ]


#: The two package ``__init__``s that may import: ``repro.telemetry``
#: defines the handles, and ``bench/workloads.py`` imports the two
#: fabric configs from ``repro.fabric``.
INIT_IMPORTS_ALLOWED = {
    "repro/telemetry/__init__.py",
    "repro/fabric/__init__.py",
}


def test_package_inits_hold_only_docstrings():
    """Every name has one import path: its defining module.  A package
    ``__init__`` re-exports nothing, so importing a submodule runs only
    what that submodule imports."""
    offenders = []
    for path in sorted((Path(SRC) / "repro").rglob("__init__.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel == "repro/__init__.py" or rel in INIT_IMPORTS_ALLOWED:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)) or (
                isinstance(node, ast.Name) and node.id == "__all__"
            ):
                offenders.append(f"{rel}:{node.lineno}")
    assert offenders == []


def test_bench_entry_points_skip_unused_subsystems():
    """What ``bench/workloads.py`` imports loads no compression, crypto or
    decoder module: no workload runs them."""
    script = """
import sys
import repro.api
import repro.eval.application
import repro.eval.chaos
import repro.eval.resilience
import repro.eval.throughput
import repro.fabric.loadgen
loaded = sorted(
    m for m in sys.modules
    if m.split(".")[:2] in (
        ["repro", "compression"], ["repro", "crypto"], ["repro", "decoders"]
    )
)
assert not loaded, loaded
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr


def test_storage_path_never_imports_scipy():
    """Building, storing and reading load no scipy (nothing in ``src/``
    does; see :func:`test_runtime_never_imports_scipy_or_networkx`)."""
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


def test_runtime_never_imports_scipy_or_networkx():
    """numpy is the one runtime dependency.

    A meta-path finder in front of every other refuses ``scipy`` and
    ``networkx`` with an error no ``except ImportError`` swallows; every
    ``repro`` module is then imported and every ``all`` figure runs, at
    small sizes.  A lazy import fails here instead of being paid for.
    """
    script = """
import importlib, pkgutil, runpy, sys

class Refuse:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] in ("scipy", "networkx"):
            raise AssertionError(f"runtime import of {name}")
        return None

sys.meta_path.insert(0, Refuse())
import repro
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(info.name)
sys.argv = ["repro", "all", "--packets", "20", "--pairs", "10", "--reps", "1"]
runpy.run_module("repro", run_name="__main__", alter_sys=True)
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    for target in ("fig9a", "sec63", "table1"):
        assert f"===== {target} =====" in proc.stdout


@pytest.fixture(scope="module")
def system():
    system = api.build_system(n_nodes=2, electrodes_per_node=2, seed=0)
    rng = np.random.default_rng(0)
    for _ in range(3):
        system.ingest(rng.normal(size=(2, 2, 120)).cumsum(axis=2))
    return system


# the facade entry points that take a window range
@pytest.mark.parametrize("entry", ["run_query"])
@pytest.mark.parametrize("window_range", [
    pytest.param((0, 1), id="valid"),
    pytest.param((2, 1), id="reversed"),
    pytest.param((1, 1), id="empty"),
    pytest.param((-5, 2), id="negative"),
])
def test_facade_checks_window_range(entry, window_range, system):
    query = getattr(api, entry)
    start, stop = window_range
    if 0 <= start < stop:
        assert query(system, "q3", window_range).rows
        return
    with pytest.raises(ConfigurationError, match="empty or negative"):
        query(system, "q3", window_range)
