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

Config fields: every constructor field of every dataclass under
``src/repro`` (inherited ones included) is *set* in ``src/``,
``examples/``, ``bench/`` or ``benchmarks/``: by keyword or position in
a call of the class (``cls(...)`` in its own body included), by a
``**`` spread, or through ``dataclasses.replace``.  No list of classes
is kept by hand, so a new dataclass is checked the day it lands.  A
field no real run sets is a module constant instead, so tests and
benchmarks never cover values that nothing runs.  State that code
writes after construction is ``field(init=False)``, which no caller can
set, and is skipped.  :data:`CONFIG_FIELDS_ALLOWED` lists the few kept
settable anyway.  :func:`test_static_fields_match_runtime` checks the
static view of each class against ``dataclasses.fields``.

Parameters: every parameter with a default, on every function and
method under ``src/repro`` (nested ones included), is *passed* in
``src/``, ``examples/``, ``bench/`` or ``benchmarks/``: by keyword or
position in a call of the function's bare name (its class's for an
``__init__``), by a ``*`` spread from its position on, or by a ``**``
spread of a mapping whose keys are not literal.  The benchmark harness
``run_once(benchmark, f, *args, **kwargs)`` counts as a call of ``f``.  A default no real run
changes is a module constant that code reads at call time, or the
parameter goes.  :data:`PARAMS_ALLOWED` lists the few kept: safety
inputs, format or algorithm boundaries, and ``__main__.main(argv)``.
:func:`test_static_params_match_runtime` checks the static view against
``inspect.signature``.

Keywords: every keyword a call in ``src/``, ``examples/``, ``bench/``
or ``benchmarks/`` passes names a parameter (or a dataclass field) of
some same-named definition under ``src/repro``, or that definition
takes ``**kwargs``.  A keyword a parameter's removal left behind fails
here, not when the call first runs.

One constant: a field or parameter with a default that every call
outside ``tests/`` gives the same module-level constant (by name, bare
or as an attribute), none leaving it at its default, is that constant,
not an option.

Written attributes: every attribute ``src/repro`` augments (``x.attr
+= ...``) or fills (a statement ``x.attr.append(...)``, or ``.extend``,
``.add``, ``.appendleft``, ``.insert``, ``.update``, ``.setdefault``,
or ``x.attr[k] = v``) is *read* in ``src/``, ``examples/``, ``bench/``
or ``benchmarks/`` (an ``ast.Attribute`` load that is not itself such a
fill, bare-name match).  A counter nothing reads is a second ledger
beside the metrics registry, or no ledger at all; a list nothing reads
only grows.  :data:`WRITE_ONLY_ALLOWED` lists the few kept anyway.
"""

from __future__ import annotations

import ast
import dataclasses
import functools
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import repro

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
    "repro.storage.controller.StorageController.store_appdata":
        "SCK2 checkpoints and APPDATA journal records carry its state",
    "repro.storage.controller.StorageController.read_appdata":
        "reads back what the APPDATA recovery path restores",
    "repro.storage.controller.StorageController.appdata_keys":
        "lists what the APPDATA recovery path restores",
    "repro.network.channel.BitErrorChannel.corrupt_bytes":
        "shares _flip_positions with transmit, so oracles draw one RNG stream",
}


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
    "repro.apps.stimulation.StimulationProtocol.amplitude_ua":
        "safety input: the per-phase charge check_safety holds to the "
        "Shannon limit (§2.1)",
    "repro.apps.stimulation.StimulationProtocol.phase_us":
        "safety input: the per-phase charge check_safety holds to the "
        "Shannon limit, and the no-overlap charge-balance check",
    "repro.apps.stimulation.StimulationProtocol.frequency_hz":
        "safety input: the no-overlap charge-balance check rejects a "
        "pulse rate whose phases would overlap",
    "repro.apps.stimulation.StimulationProtocol.train_ms":
        "safety input: the positivity check, and the DAC energy a logged "
        "train costs",
}

#: Parameters with a default that no file outside ``tests/`` passes, or
#: that every such file gives the same constant, each with why it stays
#: a parameter.  The list only shrinks: an entry that is no longer a
#: defaulted parameter, or that files outside ``tests/`` now pass with
#: varying values, fails :func:`test_params_allow_list_is_current`.
PARAMS_ALLOWED = {
    "repro.__main__.main.argv":
        "the command line; tests and the audit drive the CLI in process",
    "repro.similarity.dtw.dtw_rows.band":
        "algorithm boundary: the DTW kernel's Sakoe-Chiba band, which the "
        "oracle tests sweep (unconstrained included); callers pass DTW_BAND",
    "repro.similarity.xcor.max_cross_correlation.max_lag":
        "algorithm boundary: the XCOR kernel's lag range; callers pass "
        "DTW_BAND, the lockstep case is lag 0",
    "repro.hashing.sketch.sign_sketch_batch.stride":
        "algorithm boundary: SSH's sliding hop (delta), which the oracle "
        "tests sweep; the hash path uses hop 1",
    "repro.network.packet.Packet.build.flow":
        "format boundary: the header's 8-bit flow field, which the "
        "pack/parse round-trip tests fill",
    "repro.compression.lic.lic_compress.order":
        "format boundary: the predictor order the LIC stream header "
        "carries; the decoder reads either order",
    "repro.apps.stimulation.Stimulator.stimulate.protocol":
        "safety input: the door a non-default protocol enters by, which "
        "check_safety holds to the Shannon limit (§2.1)",
    "repro.core.thermal.check_placement.per_node_power_mw":
        "safety input: the per-implant power the thermal check holds "
        "to the 1 °C limit",
    "repro.core.thermal.check_placement.spacing_mm":
        "safety input: the spacing the thermal check and the packing "
        "bound judge a placement at",
}

#: Written attributes that no file outside ``tests/`` reads, each with
#: why it stays.  The list only shrinks: an entry that is no longer
#: written, or that a file outside ``tests/`` now reads, fails
#: :func:`test_write_only_allow_list_is_current`.
WRITE_ONLY_ALLOWED: dict[str, str] = {}
#: harness functions that call their second argument with the rest of
#: their arguments (``benchmarks/conftest.py``)
FORWARDING = frozenset({"run_once"})
#: methods that fill the container they are called on
FILLING_METHODS = frozenset({
    "append", "extend", "add", "appendleft", "insert", "update", "setdefault",
})


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


def _is_dataclass(node: ast.stmt) -> bool:
    return isinstance(node, ast.ClassDef) and any(
        "dataclass" in ast.unparse(d) for d in node.decorator_list
    )


@functools.cache
def config_fields() -> dict[str, tuple[str, list[str], list[str], list[str]]]:
    """Class name -> (module, constructor fields, inherited constructor
    fields, constructor fields with a default) of every dataclass under
    ``src/repro``.  Fields come in the order ``dataclasses.fields``
    gives: a base class's first, an overridden one in its base's
    place."""
    classes: dict[str, tuple[str, ast.ClassDef]] = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        for node in _tree(path).body:
            if _is_dataclass(node):
                assert node.name not in classes, f"two dataclasses {node.name}"
                classes[node.name] = (_module_name(path), node)

    def bases(node: ast.ClassDef) -> list[str]:
        """The dataclass bases whose fields ``node`` inherits, last
        first (the order ``dataclasses`` collects them)."""
        return [
            base.id
            for base in reversed(node.bases)
            if isinstance(base, ast.Name) and base.id in classes
        ]

    @functools.cache
    def defaults(name: str) -> dict[str, ast.expr | None]:
        """Field -> its default (``None`` for none) of one class."""
        node = classes[name][1]
        found: dict[str, ast.expr | None] = {}
        for base in bases(node):
            found.update(defaults(base))
        for sub in node.body:
            if isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name):
                found[sub.target.id] = sub.value
        return found

    found = {}
    for name, (module, node) in classes.items():
        values = defaults(name)
        inherited = {field for base in bases(node) for field in defaults(base)}
        fields = [field for field, value in values.items() if not _init_false(value)]
        found[name] = (
            module,
            fields,
            [field for field in fields if field in inherited],
            [field for field in fields if values[field] is not None],
        )
    return found


def config_field_names() -> set[str]:
    """``module.Class.field`` of every constructor field of a dataclass
    under ``src/repro``."""
    return {
        f"{module}.{cls}.{field}"
        for cls, (module, fields, *_) in config_fields().items()
        for field in fields
    }


def _keywords(
    call: ast.Call, dicts: dict[str, ast.Dict]
) -> tuple[dict[str, ast.expr], bool]:
    """The names a call passes by keyword, with their values, including
    the keys of a literal dict passed as ``**``, inline or bound to a
    name; and whether it also spreads a mapping whose keys are not
    literal."""
    values: dict[str, ast.expr] = {}
    opaque = False
    for keyword in call.keywords:
        if keyword.arg is not None:
            values[keyword.arg] = keyword.value
            continue
        spread = keyword.value
        if isinstance(spread, ast.Name):
            spread = dicts.get(spread.id)
        if isinstance(spread, ast.Dict):
            values.update(
                (key.value, value)
                for key, value in zip(spread.keys, spread.values)
                if isinstance(key, ast.Constant)
            )
        else:
            opaque = True
    return values, opaque


def _callee(func: ast.expr) -> str | None:
    return getattr(func, "id", getattr(func, "attr", None))


def _calls(tree: ast.AST, owner: str | None = None):
    """``(class name, call)`` for every call in ``tree``: the callee's
    bare name, or the enclosing class's for a ``cls(...)`` call.  A
    :data:`FORWARDING` call ``run_once(benchmark, f, *args, **kwargs)``
    is also read as the call ``f(*args, **kwargs)``."""
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, ast.Call):
            name = _callee(child.func)
            yield (owner if name == "cls" else name), child
            if name in FORWARDING and len(child.args) > 1:
                target = child.args[1]
                yield _callee(target), ast.copy_location(
                    ast.Call(target, child.args[2:], child.keywords), child
                )
        yield from _calls(
            child, child.name if isinstance(child, ast.ClassDef) else owner
        )


def _local_dicts(nodes: list[ast.AST]) -> dict[str, ast.Dict]:
    """Names bound to a literal dict in one file (``**`` spreads)."""
    return {
        target.id: node.value
        for node in nodes
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
        for target in node.targets
        if isinstance(target, ast.Name)
    }


#: What :func:`field_values` and :func:`parameter_values` record for a
#: call that leaves a field or parameter at its default.
LEFT_DEFAULT = ast.Name(id="<default>")


def _passed(values: dict[str, list[ast.expr | None]]) -> set[str]:
    """The keys of ``values`` that some call gives a value."""
    return {
        key for key, given in values.items()
        if any(value is not LEFT_DEFAULT for value in given)
    }


def field_values() -> dict[str, list[ast.expr | None]]:
    """``module.Class.field`` -> what each call outside ``tests/`` gives
    a dataclass field: the value it passes by keyword or position in a
    call of the class (``cls(...)`` in the class's own body included),
    :data:`LEFT_DEFAULT`, or a keyword of ``dataclasses.replace``.  A
    ``**`` spread of a mapping whose keys are not literal sets the
    fields the class inherits, the one shape such a spread takes
    (``FleetShard(**vars(fleet), ...)``), to ``None`` (a value the guard
    cannot read).  A ``replace`` call counts for each dataclass the file
    names whose fields include every keyword the call passes
    (``replace`` raises on any other class)."""
    classes = config_fields()
    found: dict[str, list[ast.expr | None]] = {}
    for folder in NAMING_ROOTS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            tree = _tree(path)
            nodes = list(ast.walk(tree))
            dicts = _local_dicts(nodes)
            named = {
                node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else node.asname or node.name
                for node in nodes
                if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
            }
            for name, call in _calls(tree):
                keywords, opaque = _keywords(call, dicts)
                if name in classes:
                    module, fields, inherited, _ = classes[name]
                    values: dict[str, ast.expr | None] = dict(
                        zip(fields, call.args)
                    )
                    values.update(keywords)
                    if opaque:
                        values.update(dict.fromkeys(inherited))
                    for field in fields:
                        found.setdefault(f"{module}.{name}.{field}", []).append(
                            values.get(field, LEFT_DEFAULT)
                        )
                elif name == "replace" and keywords:
                    for cls, (module, fields, *_) in classes.items():
                        if cls in named and set(keywords) <= set(fields):
                            for field, value in keywords.items():
                                found.setdefault(
                                    f"{module}.{cls}.{field}", []
                                ).append(value)
    return found


def fields_set_outside_tests() -> set[str]:
    """``module.Class.field`` of every dataclass field a file outside
    ``tests/`` sets (see :func:`field_values`)."""
    return _passed(field_values())


def test_every_config_field_is_set_outside_tests():
    unset = config_field_names() - fields_set_outside_tests()
    assert sorted(unset - set(CONFIG_FIELDS_ALLOWED)) == []


def test_static_fields_match_runtime():
    """The static view of every dataclass is what ``dataclasses.fields``
    reports once its module is imported (``repro.__main__`` is not
    imported: it parses ``sys.argv``)."""
    runtime = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name == "repro.__main__":
            continue
        for cls in vars(importlib.import_module(info.name)).values():
            if (
                isinstance(cls, type)
                and dataclasses.is_dataclass(cls)
                and cls.__module__ == info.name
            ):
                runtime[cls.__name__] = (
                    info.name,
                    [field.name for field in dataclasses.fields(cls) if field.init],
                )
    static = {
        name: (module, fields)
        for name, (module, fields, *_) in config_fields().items()
        if module != "repro.__main__"
    }
    assert runtime == static


def test_config_allow_list_is_current():
    assert all(reason for reason in CONFIG_FIELDS_ALLOWED.values())
    assert sorted(set(CONFIG_FIELDS_ALLOWED) - config_field_names()) == []
    assert sorted(set(CONFIG_FIELDS_ALLOWED) & fields_set_outside_tests()) == []


@functools.cache
def parameter_defaults() -> dict[str, tuple[str, list[str], list[str]]]:
    """``module.qualname`` -> (the name a call uses, the parameters a
    call fills by position, the parameters with a default) of every
    function and method under ``src/repro`` that has a default, nested
    ones included (``outer.<locals>.inner``).  A method's first
    parameter is skipped unless it is a ``staticmethod``; an
    ``__init__`` is called by its class's name."""
    found = {}

    def visit(body: list[ast.stmt], prefix: str, owner: str | None) -> None:
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, f"{prefix}{node.name}.", node.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                positional = [arg.arg for arg in args.posonlyargs + args.args]
                static = any(
                    ast.unparse(d) == "staticmethod" for d in node.decorator_list
                )
                if owner is not None and not static:
                    positional = positional[1:]
                defaulted = positional[len(positional) - len(args.defaults):]
                defaulted = defaulted if args.defaults else []
                defaulted += [
                    arg.arg
                    for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                    if default is not None
                ]
                name = owner if node.name == "__init__" else node.name
                if defaulted:
                    found[f"{prefix}{node.name}"] = (name, positional, defaulted)
                visit(node.body, f"{prefix}{node.name}.<locals>.", None)

    for path in sorted((SRC / "repro").rglob("*.py")):
        module = _module_name(path).removesuffix(".__init__")
        visit(_tree(path).body, f"{module}.", None)
    return found


def parameter_names() -> set[str]:
    """``module.qualname.parameter`` of every parameter with a default
    under ``src/repro``."""
    return {
        f"{qualname}.{param}"
        for qualname, (_, _, defaulted) in parameter_defaults().items()
        for param in defaulted
    }


def parameter_values() -> dict[str, list[ast.expr | None]]:
    """``module.qualname.parameter`` -> what each call outside ``tests/``
    gives a defaulted parameter: the value it passes by keyword or
    position, or :data:`LEFT_DEFAULT`.  A call matches by the callee's
    bare name (its class's for an ``__init__``).  A ``*`` spread passes
    every positional parameter from its place on, and a ``**`` spread of
    a mapping whose keys are not literal passes every defaulted one,
    each as ``None`` (a value the guard cannot read)."""
    by_name: dict[str, list[str]] = {}
    for qualname, (name, _, _) in parameter_defaults().items():
        by_name.setdefault(name, []).append(qualname)
    found: dict[str, list[ast.expr | None]] = {}
    for folder in NAMING_ROOTS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            tree = _tree(path)
            dicts = _local_dicts(list(ast.walk(tree)))
            for name, call in _calls(tree):
                keywords, opaque = _keywords(call, dicts)
                for qualname in by_name.get(name, []):
                    _, positional, defaulted = parameter_defaults()[qualname]
                    values: dict[str, ast.expr | None] = {}
                    for index, arg in enumerate(call.args[: len(positional)]):
                        if isinstance(arg, ast.Starred):
                            values.update(dict.fromkeys(positional[index:]))
                            break
                        values[positional[index]] = arg
                    values.update(keywords)
                    if opaque:
                        values.update(
                            dict.fromkeys(set(defaulted) - set(values))
                        )
                    for param in defaulted:
                        found.setdefault(f"{qualname}.{param}", []).append(
                            values.get(param, LEFT_DEFAULT)
                        )
    return found


def parameters_passed_outside_tests() -> set[str]:
    """``module.qualname.parameter`` of every defaulted parameter a file
    outside ``tests/`` passes (see :func:`parameter_values`)."""
    return _passed(parameter_values())


def test_every_parameter_default_is_passed_outside_tests():
    unpassed = parameter_names() - parameters_passed_outside_tests()
    assert sorted(unpassed - set(PARAMS_ALLOWED)) == []


def test_static_params_match_runtime():
    """The static view of every module-level function and method (the
    parameters a call fills by position, and those with a default) is
    what ``inspect.signature`` reports once its module is imported
    (``repro.__main__`` is not imported: it parses ``sys.argv``).  A
    method's first parameter is the instance's unless it is a
    ``staticmethod``.  Nested functions have no runtime handle and are
    left out."""
    runtime = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name == "repro.__main__":
            continue
        module = importlib.import_module(info.name)
        members = [
            (name, value)
            for name, value in vars(module).items()
            if getattr(value, "__module__", None) == info.name
        ]
        members += [
            (f"{cls}.{name}", value)
            for cls, owner in list(members)
            if isinstance(owner, type)
            for name, value in vars(owner).items()
        ]
        for name, value in members:
            function = inspect.unwrap(getattr(value, "__func__", value))
            if not inspect.isfunction(function) or (
                function.__code__.co_filename != module.__file__
            ):
                continue
            params = list(inspect.signature(function).parameters.values())
            defaulted = [
                param.name for param in params
                if param.default is not inspect.Parameter.empty
            ]
            positional = [
                param.name for param in params
                if param.kind in (param.POSITIONAL_ONLY, param.POSITIONAL_OR_KEYWORD)
            ]
            if "." in name and not isinstance(value, staticmethod):
                positional = positional[1:]
            if defaulted:
                runtime[f"{info.name}.{name}"] = (positional, defaulted)
    static = {
        qualname: (positional, defaulted)
        for qualname, (_, positional, defaulted) in parameter_defaults().items()
        if "<locals>" not in qualname
        and not qualname.startswith("repro.__main__.")
    }
    assert runtime == static


def _one_constant(values: list[ast.expr | None]) -> str | None:
    """The module-level constant every value names, if they all name
    the same one (``HORIZON_MS`` or ``node.HORIZON_MS``)."""
    names = {
        value.id if isinstance(value, ast.Name)
        else value.attr if isinstance(value, ast.Attribute)
        else None
        for value in values
    }
    if len(names) == 1:
        (name,) = names
        if name is not None and CONSTANT.fullmatch(name):
            return name
    return None


def constant_options() -> dict[str, str]:
    """``module.Class.field`` or ``module.qualname.parameter`` of a
    field or parameter with a default -> the one module-level constant
    every call outside ``tests/`` gives it, none leaving it at its
    default."""
    options = {
        f"{module}.{cls}.{field}"
        for cls, (module, _, _, defaulted) in config_fields().items()
        for field in defaulted
    }
    values = {
        **{key: given for key, given in field_values().items() if key in options},
        **parameter_values(),
    }
    return {
        key: name
        for key, given in values.items()
        if (name := _one_constant(given)) is not None
    }


def test_no_option_is_always_one_constant():
    """A field or parameter with a default that every call outside
    ``tests/`` sets to the same module-level constant is that constant,
    not an option; the code that reads it reads the constant instead."""
    allowed = set(CONFIG_FIELDS_ALLOWED) | set(PARAMS_ALLOWED)
    assert sorted(set(constant_options()) - allowed) == []


def test_params_allow_list_is_current():
    flagged = parameter_names() - parameters_passed_outside_tests()
    flagged |= parameter_names() & set(constant_options())
    assert all(reason for reason in PARAMS_ALLOWED.values())
    assert sorted(set(PARAMS_ALLOWED) - flagged) == []


@functools.cache
def keyword_signatures() -> dict[str, list[frozenset[str] | None]]:
    """The name a call uses -> the keywords each same-named definition
    under ``src/repro`` accepts: a function's or method's parameters (an
    ``__init__``'s under its class's name), a dataclass's constructor
    fields, or ``None`` for a definition that takes ``**kwargs``."""
    found: dict[str, list[frozenset[str] | None]] = {}
    for name, (_, fields, _, _) in config_fields().items():
        found.setdefault(name, []).append(frozenset(fields))

    def visit(body: list[ast.stmt], owner: str | None) -> None:
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, node.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                found.setdefault(
                    owner if node.name == "__init__" else node.name, []
                ).append(
                    None if args.kwarg
                    else frozenset(arg.arg for arg in args.args + args.kwonlyargs)
                )
                visit(node.body, None)

    for path in sorted((SRC / "repro").rglob("*.py")):
        visit(_tree(path).body, None)
    return found


def _foreign_names(tree: ast.Module) -> set[str]:
    """The names one file binds by importing from outside ``repro``
    (``np``, ``subprocess``): a call through one is not a ``repro``
    call, whatever its name."""
    found: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(
                alias.asname or alias.name.partition(".")[0]
                for alias in node.names
                if alias.name.partition(".")[0] != "repro"
            )
        elif (
            isinstance(node, ast.ImportFrom)
            and node.level == 0
            and node.module.partition(".")[0] != "repro"
        ):
            found.update(alias.asname or alias.name for alias in node.names)
    return found


def keyword_drift() -> list[str]:
    """``path:line name(keyword=)`` for every keyword a call outside
    ``tests/`` passes that no same-named definition under ``src/repro``
    accepts (see :func:`keyword_signatures`).  A call of a name nothing
    under ``src/repro`` defines, or through a name imported from outside
    ``repro``, is not checked."""
    signatures = keyword_signatures()
    drift = []
    for folder in NAMING_ROOTS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            tree = _tree(path)
            foreign = _foreign_names(tree)
            dicts = _local_dicts(list(ast.walk(tree)))
            for name, call in _calls(tree):
                accepted = signatures.get(name)
                receiver = getattr(call.func, "value", call.func)
                if (
                    accepted is None
                    or None in accepted
                    or getattr(receiver, "id", None) in foreign
                ):
                    continue
                keywords, _ = _keywords(call, dicts)
                drift += [
                    f"{path.relative_to(ROOT)}:{call.lineno} {name}({keyword}=)"
                    for keyword in keywords
                    if not any(keyword in given for given in accepted)
                ]
    return drift


def test_every_keyword_names_a_parameter():
    """A keyword that no definition of the callee accepts is a
    ``TypeError`` waiting for the call to run; a benchmark or an option
    path that no test runs would ship it."""
    assert keyword_drift() == []


def _filled(receiver: ast.expr) -> ast.Attribute | None:
    """The attribute a fill lands in: ``x.attr`` itself, or under an
    index (``x.attr[k]``) or a ``setdefault`` (``x.attr.setdefault(k,
    [])``) on the way to the container the statement fills."""
    while True:
        if isinstance(receiver, ast.Attribute):
            return receiver
        if isinstance(receiver, ast.Subscript):
            receiver = receiver.value
        elif (
            isinstance(receiver, ast.Call)
            and isinstance(receiver.func, ast.Attribute)
            and receiver.func.attr == "setdefault"
        ):
            receiver = receiver.func.value
        else:
            return None


def written(tree: ast.Module) -> list[ast.Attribute]:
    """Each attribute node one file writes: a ``+=`` target, the
    receiver of a filling-method statement, or the container of an
    item assignment."""
    found: list[ast.Attribute] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.AugAssign) and isinstance(
            node.target, ast.Attribute
        ):
            found.append(node.target)
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found.extend(
                filter(None, (
                    _filled(target.value)
                    for target in targets
                    if isinstance(target, ast.Subscript)
                ))
            )
        elif (
            isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Attribute)
            and node.value.func.attr in FILLING_METHODS
            and (target := _filled(node.value.func.value)) is not None
        ):
            found.append(target)
    return found


def augmented_attributes() -> dict[str, str]:
    """Qualified name -> bare name of every attribute ``src/repro``
    writes (see :func:`written`): ``module.Class.attr`` for each class
    of the writing module that declares ``attr`` as a field, else
    ``module.attr``."""
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
        for target in written(tree):
            attr = target.attr
            for owner in declared.get(attr, [None]):
                qualname = ".".join(filter(None, (module, owner, attr)))
                found[qualname] = attr
    return found


def attributes_read_outside_tests() -> set[str]:
    """Every attribute name a file outside ``tests/`` loads, other than
    the loads that only write (:func:`written`)."""
    reads: set[str] = set()
    for folder in NAMING_ROOTS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            tree = _tree(path)
            writes = {id(node) for node in written(tree)}
            reads.update(
                node.attr
                for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and id(node) not in writes
            )
    return reads


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
