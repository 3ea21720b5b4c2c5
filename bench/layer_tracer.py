"""Layer-attributed wall-clock tracing of ``repro`` from outside the package.

The tracer wraps a fixed list of public entry points (:data:`ENTRY_POINTS`)
and books each call as a span of the layer its module belongs to.  A
layer's *self* time is a span's duration minus the part of it covered by
nested spans, so self times of all layers plus the time outside every
span (the benchmark's own share) add up to the traced wall time.

Nothing under ``src/`` changes.  Installing the tracer replaces:

* methods in the ``__dict__`` of their defining class (``staticmethod``
  and ``classmethod`` descriptors are rewrapped as such);
* module-level functions in *every* loaded ``repro.*`` module that holds
  them, so ``from repro.recovery.ecc import decode_page`` aliases route
  through the wrapper too.  Callers outside ``repro`` must therefore look
  entry points up through their module at call time
  (``chaos.run_storm(...)``), not hold their own aliases.

:meth:`LayerTracer.uninstall` puts every original object back by
identity.  Load every ``repro`` module the traced code needs before
installing, so no module copies a wrapper in while the tracer is live.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

#: the package whose entry points are traced
PACKAGE = "repro"
#: sub-packages booked as layers of their own instead of their parent's
SUBLAYERS = ("recovery.ecc",)


def layer_of(module: str) -> str:
    """The layer name of a ``repro`` module (its top-level package)."""
    name = module.removeprefix(PACKAGE + ".")
    for sub in SUBLAYERS:
        if name == sub or name.startswith(sub + "."):
            return sub
    return name.split(".")[0]


def _one(result, args) -> float:
    return 1


@dataclass(frozen=True)
class Count:
    """A counter booked each time its entry point returns."""

    name: str
    #: ``(result, args) -> amount``; one per call by default
    amount: Callable[[object, tuple], float] = _one
    #: book only calls entered from another layer, so that an entry
    #: point calling another one of its own layer is not counted twice
    outer: bool = False


@dataclass(frozen=True)
class EntryPoint:
    """One traced callable: ``module`` plus ``Class.method`` or ``function``."""

    module: str
    qualname: str
    counts: tuple[Count, ...] = ()

    @property
    def layer(self) -> str:
        return layer_of(self.module)

    @property
    def site(self) -> str:
        return f"{self.module}.{self.qualname}"


class LayerTracer:
    """Exclusive-time spans and counters at a set of entry points."""

    def __init__(self, entry_points, clock=time.perf_counter) -> None:
        self.entry_points = tuple(entry_points)
        self._clock = clock
        #: open spans, innermost last: ``[layer, seconds covered by children]``
        self._stack: list[list] = []
        #: ``(owner, attribute, original)`` in the order they were replaced
        self._patches: list[tuple[object, str, object]] = []
        #: wrapper id -> (wrapper, original) for every wrapper handed out
        self._wrappers: dict[int, tuple[object, object]] = {}
        #: per entry point: ``[calls, inclusive seconds, self seconds]``
        self._sites: dict[str, list] = {
            entry.site: [0, 0.0, 0.0] for entry in self.entry_points
        }
        self._layers = {entry.site: entry.layer for entry in self.entry_points}
        self.counts: dict[str, float] = defaultdict(float)
        #: seconds spent inside outermost spans
        self.covered_s = 0.0

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def _by_layer(self, column: int) -> dict:
        totals: dict = {}
        for site, stats in self._sites.items():
            if stats[0]:
                layer = self._layers[site]
                totals[layer] = totals.get(layer, 0) + stats[column]
        return totals

    @property
    def calls(self) -> dict[str, int]:
        """Wrapped calls per layer."""
        return self._by_layer(0)

    @property
    def self_s(self) -> dict[str, float]:
        """Exclusive seconds per layer."""
        return self._by_layer(2)

    @property
    def site_calls(self) -> dict[str, int]:
        return {site: s[0] for site, s in self._sites.items() if s[0]}

    @property
    def site_s(self) -> dict[str, float]:
        """Inclusive seconds per entry point."""
        return {site: s[1] for site, s in self._sites.items() if s[0]}

    @property
    def site_self_s(self) -> dict[str, float]:
        """Exclusive seconds per entry point."""
        return {site: s[2] for site, s in self._sites.items() if s[0]}

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn, entry: EntryPoint):
        layer, counts, stats = entry.layer, entry.counts, self._sites[entry.site]
        stack, clock, tally = self._stack, self._clock, self.counts
        push, pop = stack.append, stack.pop
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [layer, 0.0]
            push(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[1]
                if parent is None:
                    tracer.covered_s += elapsed
                else:
                    parent[1] += elapsed
            if counts:
                entered = parent is None or parent[0] != layer
                for count in counts:
                    if entered or not count.outer:
                        tally[count.name] += count.amount(result, args)
            return result

        self._wrappers[id(traced)] = (traced, fn)
        return traced

    def _wrap_descriptor(self, raw, entry: EntryPoint):
        if isinstance(raw, staticmethod):
            return staticmethod(self._wrap(raw.__func__, entry))
        if isinstance(raw, classmethod):
            return classmethod(self._wrap(raw.__func__, entry))
        if callable(raw):
            return self._wrap(raw, entry)
        raise TypeError(f"{entry.site} is not a function or method")

    def _patch(self, owner, attribute: str, replacement) -> None:
        self._patches.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, replacement)

    @staticmethod
    def _package_modules():
        return [
            module
            for name, module in list(sys.modules.items())
            if module is not None
            and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    # -- install / uninstall ---------------------------------------------------

    def install(self) -> "LayerTracer":
        """Wrap every entry point; totals keep adding up across installs."""
        if self.installed:
            raise RuntimeError("tracer already installed")
        functions: dict[int, tuple[object, object]] = {}
        try:
            for entry in self.entry_points:
                module = importlib.import_module(entry.module)
                owner_name, _, attribute = entry.qualname.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name)
                    if attribute not in vars(owner):
                        raise AttributeError(
                            f"{entry.site} is not defined on {owner_name}"
                        )
                    self._patch(
                        owner, attribute,
                        self._wrap_descriptor(vars(owner)[attribute], entry),
                    )
                else:
                    original = getattr(module, attribute)
                    functions[id(original)] = (
                        original, self._wrap(original, entry)
                    )
            for module in self._package_modules():
                for attribute, value in list(vars(module).items()):
                    hit = functions.get(id(value))
                    if hit is not None and hit[0] is value:
                        self._patch(module, attribute, hit[1])
        except BaseException:
            self.uninstall()
            raise
        return self

    def uninstall(self) -> None:
        """Restore every replaced attribute to its original object."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)
        # a module imported while the tracer was live may hold a wrapper
        for module in self._package_modules():
            for attribute, value in list(vars(module).items()):
                hit = self._wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attribute, hit[1])
        self._wrappers.clear()

    def __enter__(self) -> "LayerTracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()


# -- the repro entry points ------------------------------------------------------


def _rows(result, args) -> float:
    return len(result)


def _hit(result, args) -> float:
    return result is not None


def _corrected(result, args) -> float:
    return result.corrected_bits


def _uncorrectable(result, args) -> float:
    return not result.ok


def _nonempty(result, args) -> float:
    return bool(result)


def _rounds_observed(result, args) -> float:
    return result["rounds_observed"]


def _methods(module: str, cls: str, names: str, **counts) -> list[EntryPoint]:
    """Entry points for ``cls.<name>`` of each space-separated name."""
    return [
        EntryPoint(module, f"{cls}.{name}", counts.get(name, ()))
        for name in names.split()
    ]


_PAGE_READ = (Count("storage.page_reads"),)
_PAGE_WRITE = (Count("storage.page_writes"),)
_WINDOWS = Count("hashing.windows_hashed", _rows, outer=True)

#: Public entry points of each layer.  Keep additions to a similar call
#: rate: per-sample or per-counter calls (``_uniform01``,
#: ``MetricsRegistry.inc``) cost more to trace than they take.
ENTRY_POINTS: tuple[EntryPoint, ...] = (
    *_methods(
        "repro.storage.controller", "StorageController",
        "store_window store_channel_windows read_window window_signature "
        "store_hash_batch read_hash_batch",
        window_signature=(
            Count("storage.sig_lookups"), Count("storage.sig_hits", _hit),
        ),
    ),
    *_methods(
        "repro.storage.nvm", "NVMDevice",
        "read program_page rewrite_range erase_block check_page",
        read=_PAGE_READ, check_page=_PAGE_READ,
        program_page=_PAGE_WRITE, rewrite_range=_PAGE_WRITE,
    ),
    EntryPoint("repro.recovery.ecc", "compute_ecc",
               (Count("recovery.ecc.encodes"),)),
    EntryPoint("repro.recovery.ecc", "decode_page", (
        Count("recovery.ecc.decodes"),
        Count("recovery.ecc.corrected", _corrected),
        Count("recovery.ecc.uncorrectable", _uncorrectable),
    )),
    *_methods("repro.recovery.failover", "FailoverManager", "step checkpoint"),
    *_methods("repro.recovery.scrub", "Scrubber", "step"),
    EntryPoint("repro.recovery.resync", "resync_node"),
    *_methods("repro.recovery.journal", "WriteAheadJournal", "append replay"),
    EntryPoint("repro.hashing.lsh", "LSHFamily.hash_window",
               (Count("hashing.windows_hashed", outer=True),)),
    EntryPoint("repro.hashing.lsh", "LSHFamily.hash_windows", (_WINDOWS,)),
    EntryPoint("repro.hashing.lsh", "LSHFamily.hash_channels", (_WINDOWS,)),
    EntryPoint("repro.hashing.lsh", "LSHFamily.matches_many"),
    EntryPoint("repro.hashing.collision", "CollisionChecker.check"),
    EntryPoint("repro.network.network", "WirelessNetwork.send",
               (Count("network.sends"),)),
    EntryPoint("repro.network.network", "WirelessNetwork.transmit_to"),
    EntryPoint("repro.network.arq", "ReliableLink.send",
               (Count("network.arq_sends"),)),
    EntryPoint("repro.scheduler.ilp", "SchedulerProblem.solve",
               (Count("scheduler.solves"),)),
    EntryPoint("repro.apps.queries", "QueryEngine.run",
               (Count("apps.queries"),)),
    *_methods(
        "repro.serving.server", "QueryServer", "submit step run_until drain",
        submit=(Count("serving.submits"),),
        step=(Count("serving.waves", _nonempty),),
    ),
    EntryPoint("repro.serving.loadgen", "serve_session"),
    *_methods("repro.fabric.fabric", "FleetFabric",
              "submit run_until drain population_query"),
    EntryPoint("repro.fabric.loadgen", "fabric_session"),
    EntryPoint("repro.faults.injector", "FaultInjector.step",
               (Count("faults.rounds"),)),
    EntryPoint("repro.faults.plan", "FaultPlan.generate"),
    *_methods(
        "repro.telemetry.health.engine", "HealthEngine",
        "observe_to finalize report",
        report=(Count("telemetry.health_samples", _rounds_observed),),
    ),
    EntryPoint("repro.telemetry.registry", "MetricsRegistry.observe"),
    *_methods(
        "repro.core.system", "ScaloSystem",
        "ingest query query_distributed fail_node recover_node reschedule",
    ),
    EntryPoint("repro.core.node", "ScaloNode.ingest_window"),
    EntryPoint("repro.eval.chaos", "run_storm"),
    EntryPoint("repro.eval.chaos", "run_partition_storm"),
    EntryPoint("repro.eval.application", "fig9a"),
    EntryPoint("repro.eval.throughput", "fig8b"),
    EntryPoint("repro.eval.resilience", "resilience_sweep"),
)

#: every layer an entry point belongs to, in report order
LAYERS: tuple[str, ...] = (
    "storage", "recovery.ecc", "recovery", "hashing", "network",
    "scheduler", "apps", "serving", "fabric", "faults", "telemetry",
    "core", "eval",
)
