"""Every module under ``src/repro`` is reached from a runtime entry point.

A static walk of ``import`` and ``from repro... import`` statements
(function-local ones included) starts at ``repro.__main__``,
``repro.api``, ``examples/``, ``bench/`` and ``benchmarks/``.  A name
re-exported by a package ``__init__`` resolves to the module that
defines it, so a package import does not reach every submodule.  A
module that only ``tests/`` imports is code no figure, table, example
or benchmark runs.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _path(module: str) -> Path | None:
    base = SRC.joinpath(*module.split("."))
    for path in (base.with_suffix(".py"), base / "__init__.py"):
        if path.is_file():
            return path
    return None


def _resolve(module: str, name: str) -> str:
    """The module that defines ``module.name`` (a submodule, a re-export
    of a package ``__init__``, or ``module`` itself)."""
    if _path(f"{module}.{name}") is not None:
        return f"{module}.{name}"
    path = _path(module)
    if path is not None and path.name == "__init__.py":
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module and any(
                (alias.asname or alias.name) == name for alias in node.names
            ):
                return _resolve(node.module, name)
    return module


def _imports(path: Path) -> set[str]:
    found: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            found.update(_resolve(node.module, alias.name) for alias in node.names)
    return {name for name in found if name.split(".")[0] == "repro"}


def reached_modules() -> set[str]:
    roots = [_path("repro.__main__"), _path("repro.api")]
    for folder in ("examples", "bench", "benchmarks"):
        roots.extend(sorted((ROOT / folder).glob("*.py")))
    todo = {name for path in roots for name in _imports(path)}
    todo.update({"repro.__main__", "repro.api"})
    seen: set[str] = set()
    while todo:
        module = todo.pop()
        path = _path(module)
        if module in seen or path is None:
            continue
        seen.add(module)
        if path.name != "__init__.py":
            todo.update(_imports(path))
    return seen


def test_every_src_module_is_reached_from_an_entry_point():
    modules = {
        ".".join(path.relative_to(SRC).with_suffix("").parts)
        for path in (SRC / "repro").rglob("*.py")
        if path.name != "__init__.py"
    }
    assert sorted(modules - reached_modules()) == []
