"""Every module, function and constant under ``src/repro`` is used
outside ``tests/``.

Modules: a static walk of ``import`` and ``from repro... import``
statements (function-local ones included) starts at ``repro.__main__``,
``repro.api``, ``examples/``, ``bench/`` and ``benchmarks/``.  A name
re-exported by a package ``__init__`` resolves to the module that
defines it, so a package import does not reach every submodule.  A
module that only ``tests/`` imports is code no figure, table, example
or benchmark runs.

Functions and constants: every public module-level function, public
method of a public class and public module-level constant is *named*
in ``src/``, ``examples/``, ``bench/`` or ``benchmarks/``: as an
``ast.Attribute``, an import alias, a member of ``repro.api.__all__``,
or a word of a string in ``bench/layer_tracer.py`` (its
``ENTRY_POINTS`` wrap functions by qualname).  A module-level function
or constant is also named by an ``ast.Name`` read; a method is not, so
a local variable that shares a method's name does not keep the method.
Docstrings and comments do not count.  Attributes still match bare, so
a method counts as named when any attribute of that name is read;
``tests/audit_reachability.py`` checks by code object what this check
matches by name.  :data:`UNNAMED_ALLOWED` lists the few kept although
only tests call them.

Config fields: every constructor field of a config dataclass under
``src/repro`` (a ``*Config`` or ``*Policy`` class, ``StormLevel``, or
one of the fault, recovery and telemetry components in
:data:`COMPONENT_CLASSES`) is *set* in ``src/``, ``examples/``,
``bench/`` or ``benchmarks/``.  A field no real run sets is a module
constant instead, so tests and benchmarks never cover values that
nothing runs.  State fields are ``field(init=False)``, which no caller
can set, and are skipped.  :data:`CONFIG_FIELDS_ALLOWED` lists the few
kept settable anyway.

Augmented attributes: every attribute ``src/repro`` augments (``x.attr
+= ...``) is *read* in ``src/``, ``examples/``, ``bench/`` or
``benchmarks/`` (an ``ast.Attribute`` load, bare-name match).  A counter
nothing reads is a second ledger beside the metrics registry, or no
ledger at all.  :data:`WRITE_ONLY_ALLOWED` lists the few kept anyway.
"""

from __future__ import annotations

import ast
import functools
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: the trees whose names keep a definition alive
NAMING_ROOTS = ("src", "examples", "bench", "benchmarks")
#: the file that wraps entry points by their qualname strings
TRACER = ROOT / "bench" / "layer_tracer.py"
CONSTANT = re.compile(r"[A-Z][A-Z0-9_]*")

#: Public definitions that no file outside ``tests/`` names, each with
#: why it stays.  The list only shrinks: an entry that is no longer
#: defined, or that a file outside ``tests/`` now names, fails
#: :func:`test_unnamed_allow_list_is_current`.
UNNAMED_ALLOWED = {
    "repro.scheduler.constraints.ConstraintSystem.verify":
        "independent check of a solved schedule against every exact row",
    "repro.recovery.journal.WriteAheadJournal.from_image":
        "rebuilds a journal from a torn image: the torn-tail handling",
    "repro.network.packet.Packet.parse":
        "the total parser for untrusted frames; never raises",
    "repro.compression.hash_codec.dcomp_decompress":
        "the codec inverse the HCOMP round-trip tests decode with",
    "repro.decoders.nn.ShallowNN.forward":
        "the undecomposed reference distributed_forward is tested against",
    "repro.faults.injector.FaultInjector.event_log":
        "the determinism observable of a replayed storm",
    "repro.faults.plan.FaultPlan.event_log":
        "the determinism observable of a generated plan",
    "repro.serving.server.QueryServer.result_for":
        "the API whose LRU bound the isolation eviction counts measure",
    "repro.storage.controller.StorageController.store_appdata":
        "SCK2 checkpoints and APPDATA journal records carry its state",
    "repro.storage.controller.StorageController.read_appdata":
        "reads back what the APPDATA recovery path restores",
    "repro.storage.controller.StorageController.appdata_keys":
        "lists what the APPDATA recovery path restores",
    "repro.network.channel.BitErrorChannel.corrupt_bytes":
        "shares _flip_positions with transmit, so oracles draw one RNG stream",
}


#: Component dataclasses whose constructor fields are knobs too.
COMPONENT_CLASSES = (
    "HealthMonitor", "FleetBelief", "FaultInjector", "Scrubber",
    "FleetScrubber", "FailoverManager", "NVMDevice", "MetricsRegistry",
)
#: Config dataclasses: the classes whose fields are knobs.
CONFIG_CLASS = re.compile(
    r"\w*(Config|Policy)|StormLevel|" + "|".join(COMPONENT_CLASSES)
)

#: Config fields that no file outside ``tests/`` sets, each with why it
#: stays settable.  The list only shrinks: an entry that is no longer a
#: field, or that a file outside ``tests/`` now sets, fails
#: :func:`test_config_allow_list_is_current`.
CONFIG_FIELDS_ALLOWED = {
    "repro.core.config_loader.FlowConfig.route":
        "parsed in place from the program's scalo_connect lines (§3.7)",
    "repro.core.config_loader.FlowConfig.comm":
        "parsed in place from the program's scalo_set_comm lines (§3.7)",
    "repro.core.config_loader.FlowConfig.net_budget_ms":
        "parsed in place from the program's scalo_set_comm lines (§3.7)",
    "repro.network.tdma.TDMAConfig.guard_ms":
        "§3.6: the slot guard microsecond clock sync allows, beside the radio",
}

#: Augmented attributes that no file outside ``tests/`` reads, each with
#: why it stays.  The list only shrinks: an entry that is no longer
#: augmented, or that a file outside ``tests/`` now reads, fails
#: :func:`test_write_only_allow_list_is_current`.
WRITE_ONLY_ALLOWED = {
    "repro.apps.seizure.SimulationResult.hash_rounds_lost":
        "a field of the result run() returns: detections whose hash "
        "round the radio lost, so they stayed local (§6.6)",
}


@functools.cache
def _tree(path: Path) -> ast.Module:
    """The parse of one file, shared by every guard (none mutates it)."""
    return ast.parse(path.read_text())


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
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.ImportFrom) and node.module and any(
                (alias.asname or alias.name) == name for alias in node.names
            ):
                return _resolve(node.module, name)
    return module


def _imports(path: Path) -> set[str]:
    found: set[str] = set()
    for node in ast.walk(_tree(path)):
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


def _module_name(path: Path) -> str:
    return ".".join(path.relative_to(SRC).with_suffix("").parts)


def test_every_src_module_is_reached_from_an_entry_point():
    modules = {
        _module_name(path)
        for path in (SRC / "repro").rglob("*.py")
        if path.name != "__init__.py"
    }
    assert sorted(modules - reached_modules()) == []


def public_definitions() -> dict[str, tuple[str, bool]]:
    """Qualified name -> (bare name, is a method) of every public
    module-level function, public method of a public top-level class and
    public module-level constant under ``src/repro``."""
    found: dict[str, tuple[str, bool]] = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        module = _module_name(path)
        for node in _tree(path).body:
            if isinstance(node, ast.FunctionDef):
                members = [(node.name, node.name)]
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                members = [
                    (f"{node.name}.{sub.name}", sub.name)
                    for sub in node.body
                    if isinstance(sub, ast.FunctionDef)
                ]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                members = [
                    (target.id, target.id)
                    for target in targets
                    if isinstance(target, ast.Name)
                    and CONSTANT.fullmatch(target.id)
                ]
            else:
                continue
            for qualname, name in members:
                if not name.startswith("_"):
                    found[f"{module}.{qualname}"] = (name, qualname != name)
    return found


def _docstrings(tree: ast.Module) -> set[int]:
    """``id``s of the docstring constants in ``tree``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                found.add(id(first.value))
    return found


def names_outside_tests() -> tuple[set[str], set[str]]:
    """``(attributes, reads)``: every name a method may be matched by,
    and the bare ``ast.Name`` reads that also match a module-level
    function or constant."""
    names: set[str] = set()
    reads: set[str] = set()
    for folder in NAMING_ROOTS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            tree = _tree(path)
            docstrings = _docstrings(tree) if path == TRACER else set()
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    reads.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.update(node.name.split("."))
                elif (
                    path == TRACER
                    and isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and id(node) not in docstrings
                ):
                    names.update(re.split(r"[\s.]+", node.value))
    api = _tree(SRC / "repro" / "api.py")
    for node in api.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            names.update(ast.literal_eval(node.value))
    return names, reads


def unnamed_definitions() -> set[str]:
    """Qualified names of the public definitions nothing outside
    ``tests/`` names."""
    attributes, reads = names_outside_tests()
    unnamed = set()
    for qualname, (name, method) in public_definitions().items():
        if name not in attributes and (method or name not in reads):
            unnamed.add(qualname)
    return unnamed


def test_every_public_definition_is_named_outside_tests():
    assert sorted(unnamed_definitions() - set(UNNAMED_ALLOWED)) == []


def test_unnamed_allow_list_is_current():
    definitions = public_definitions()
    assert all(reason for reason in UNNAMED_ALLOWED.values())
    assert sorted(set(UNNAMED_ALLOWED) - set(definitions)) == []
    assert sorted(set(UNNAMED_ALLOWED) - unnamed_definitions()) == []


def _init_false(value: ast.expr | None) -> bool:
    """Whether a field's default is ``field(..., init=False, ...)``."""
    return isinstance(value, ast.Call) and any(
        keyword.arg == "init"
        and isinstance(keyword.value, ast.Constant)
        and keyword.value.value is False
        for keyword in value.keywords
    )


def config_fields() -> dict[str, tuple[str, list[str]]]:
    """Class name -> (module, constructor fields in declaration order)
    of every config dataclass under ``src/repro``."""
    found: dict[str, tuple[str, list[str]]] = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        for node in _tree(path).body:
            if not (
                isinstance(node, ast.ClassDef)
                and CONFIG_CLASS.fullmatch(node.name)
                and any("dataclass" in ast.unparse(d) for d in node.decorator_list)
            ):
                continue
            assert node.name not in found, f"two config classes {node.name}"
            found[node.name] = (
                _module_name(path),
                [
                    sub.target.id
                    for sub in node.body
                    if isinstance(sub, ast.AnnAssign)
                    and isinstance(sub.target, ast.Name)
                    and not _init_false(sub.value)
                ],
            )
    return found


def config_field_names() -> set[str]:
    """``module.Class.field`` of every config field."""
    return {
        f"{module}.{cls}.{field}"
        for cls, (module, fields) in config_fields().items()
        for field in fields
    }


def _keywords(call: ast.Call, dicts: dict[str, ast.Dict]) -> list[str]:
    """The names a call passes by keyword, including the keys of a
    literal dict passed as ``**``, inline or bound to a name."""
    names = []
    for keyword in call.keywords:
        if keyword.arg is not None:
            names.append(keyword.arg)
            continue
        spread = keyword.value
        if isinstance(spread, ast.Name):
            spread = dicts.get(spread.id)
        if isinstance(spread, ast.Dict):
            names.extend(
                key.value for key in spread.keys if isinstance(key, ast.Constant)
            )
    return names


def fields_set_outside_tests() -> set[str]:
    """``module.Class.field`` of every config field a file outside
    ``tests/`` sets: by keyword or position in a call of the class, or
    through ``dataclasses.replace``.  A ``replace`` call counts for each
    config class the file names whose fields include every keyword the
    call passes (``replace`` raises on any other class)."""
    classes = config_fields()
    found: set[str] = set()
    for folder in NAMING_ROOTS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            nodes = list(ast.walk(_tree(path)))
            dicts = {
                target.id: node.value
                for node in nodes
                if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
                for target in node.targets
                if isinstance(target, ast.Name)
            }
            named = {
                node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else node.asname or node.name
                for node in nodes
                if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
            }
            for call in nodes:
                if not isinstance(call, ast.Call):
                    continue
                name = getattr(call.func, "id", getattr(call.func, "attr", None))
                keywords = _keywords(call, dicts)
                if name in classes:
                    module, fields = classes[name]
                    found.update(
                        f"{module}.{name}.{field}"
                        for field in fields[: len(call.args)] + keywords
                    )
                elif name == "replace" and keywords:
                    found.update(
                        f"{module}.{cls}.{field}"
                        for cls, (module, fields) in classes.items()
                        if cls in named and set(keywords) <= set(fields)
                        for field in keywords
                    )
    return found


def test_every_config_field_is_set_outside_tests():
    unset = config_field_names() - fields_set_outside_tests()
    assert sorted(unset - set(CONFIG_FIELDS_ALLOWED)) == []


def test_config_allow_list_is_current():
    assert all(reason for reason in CONFIG_FIELDS_ALLOWED.values())
    assert sorted(set(CONFIG_FIELDS_ALLOWED) - config_field_names()) == []
    assert sorted(set(CONFIG_FIELDS_ALLOWED) & fields_set_outside_tests()) == []


def augmented_attributes() -> dict[str, str]:
    """Qualified name -> bare name of every attribute ``src/repro``
    augments: ``module.Class.attr`` for each class of the augmenting
    module that declares ``attr`` as a field, else ``module.attr``."""
    found: dict[str, str] = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        module = _module_name(path)
        tree = _tree(path)
        declared: dict[str, list[str]] = {}
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.AnnAssign) and isinstance(
                        sub.target, ast.Name
                    ):
                        declared.setdefault(sub.target.id, []).append(node.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.AugAssign) and isinstance(
                node.target, ast.Attribute
            ):
                attr = node.target.attr
                for owner in declared.get(attr, [None]):
                    qualname = ".".join(filter(None, (module, owner, attr)))
                    found[qualname] = attr
    return found


def attributes_read_outside_tests() -> set[str]:
    """Every attribute name a file outside ``tests/`` loads."""
    return {
        node.attr
        for folder in NAMING_ROOTS
        for path in sorted((ROOT / folder).rglob("*.py"))
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def test_every_augmented_attribute_is_read_outside_tests():
    reads = attributes_read_outside_tests()
    unread = {
        qualname
        for qualname, attr in augmented_attributes().items()
        if attr not in reads
    }
    assert sorted(unread - set(WRITE_ONLY_ALLOWED)) == []


def test_write_only_allow_list_is_current():
    augmented = augmented_attributes()
    reads = attributes_read_outside_tests()
    assert all(reason for reason in WRITE_ONLY_ALLOWED.values())
    assert sorted(set(WRITE_ONLY_ALLOWED) - set(augmented)) == []
    assert sorted(q for q in WRITE_ONLY_ALLOWED if augmented[q] in reads) == []
