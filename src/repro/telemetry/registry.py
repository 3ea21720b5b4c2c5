"""Label-aware metrics registry: counters, gauges, fixed-bucket histograms.

All values are keyed by ``(metric name, sorted label tuple)`` so that two
call sites reporting ``pe.busy_us{pe=DTW}`` land in the same cell no
matter the keyword ordering.  The registry is pure bookkeeping — nothing
here touches wall clocks or random state, so attaching a registry to a
seeded scenario cannot perturb it (the PR-1 determinism guarantee).

Metric naming scheme (see DESIGN.md "Telemetry & tracing"):

* dotted, ``subsystem.quantity[_unit]`` — ``network.packets_sent``,
  ``arq.retries``, ``storage.nvm_reads``, ``scheduler.solves``;
* labels for dimensions, not new names — ``pe.busy_us{pe=DTW}``;
* ``*_ms`` / ``*_us`` suffixes mark time quantities; bare names count
  events.  Every time quantity is simulated time from the scenario's
  :class:`~repro.telemetry.clock.SimClock`, so a snapshot depends only
  on the seed; no registry value reads the host clock.

Counters are pushed with :meth:`MetricsRegistry.inc`, or kept by their
component in a table keyed like the registry and read in place
(:meth:`MetricsRegistry.collect`), so no event is counted twice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.errors import ConfigurationError
from repro.telemetry.health.sketch import QuantileSketch

#: Label set canonicalised to a hashable, deterministically-ordered key.
LabelKey = tuple[tuple[str, str], ...]

#: Default histogram bucket edges: a geometric ladder wide enough for both
#: microsecond spans and multi-second simulated intervals.
DEFAULT_BUCKET_EDGES = (
    0.01, 0.1, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
    100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0,
)


def label_key(labels: dict[str, object]) -> LabelKey:
    """Canonicalise a label dict: sorted, stringified.

    The zero- and one-label cases — the overwhelming majority of calls
    on the serving hot path — skip the sort entirely.
    """
    if not labels:
        return ()
    if len(labels) == 1:
        ((k, v),) = labels.items()
        return ((k, str(v)),)
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def format_metric(name: str, labels: LabelKey) -> str:
    """Render ``name{k=v,...}`` (no braces when unlabelled)."""
    if not labels:
        return name
    body = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{body}}}"


@dataclass
class Histogram:
    """A fixed-bucket histogram.

    ``counts[i]`` holds observations ``v`` with
    ``edges[i-1] < v <= edges[i]`` (``v <= edges[0]`` for the first
    bucket); ``counts[-1]`` is the overflow bucket for ``v > edges[-1]``.
    Sum/count/min/max ride along so means survive export.
    """

    edges: tuple[float, ...]
    counts: list[int] = field(default_factory=list)
    total: float = 0.0
    n: int = 0
    min_value: float = float("inf")
    max_value: float = float("-inf")

    def __post_init__(self) -> None:
        if not self.edges:
            raise ConfigurationError("histogram needs at least one edge")
        if list(self.edges) != sorted(self.edges):
            raise ConfigurationError("histogram edges must be ascending")
        if len(set(self.edges)) != len(self.edges):
            raise ConfigurationError("histogram edges must be distinct")
        if not self.counts:
            self.counts = [0] * (len(self.edges) + 1)

    def bucket_index(self, value: float) -> int:
        """First bucket whose upper edge admits ``value`` (last = overflow)."""
        for i, edge in enumerate(self.edges):
            if value <= edge:
                return i
        return len(self.edges)

    def observe(self, value: float, n: int = 1) -> None:
        """Record ``value`` (``n`` times)."""
        self.counts[self.bucket_index(value)] += n
        self.total += value * n
        self.n += n
        self.min_value = min(self.min_value, value)
        self.max_value = max(self.max_value, value)

    @property
    def mean(self) -> float:
        return self.total / self.n if self.n else 0.0

    def as_dict(self) -> dict:
        return {
            "edges": list(self.edges),
            "counts": list(self.counts),
            "sum": self.total,
            "count": self.n,
            "min": self.min_value if self.n else None,
            "max": self.max_value if self.n else None,
        }


@dataclass
class MetricsRegistry:
    """Counters, gauges, histograms, and quantile sketches for one run.

    ``observe()`` dual-writes every sample: into the fixed-bucket
    :class:`Histogram` (the PR-2 export surface, kept byte-compatible)
    and into a mergeable
    :class:`~repro.telemetry.health.sketch.QuantileSketch`, the only
    quantile source — its error is *relative* (±1 % by default at any
    magnitude) rather than bucket-width bound, and sketches from
    different nodes/labels merge exactly.
    """

    _counters: dict[tuple[str, LabelKey], float] = field(default_factory=dict)
    _gauges: dict[tuple[str, LabelKey], float] = field(default_factory=dict)
    _histograms: dict[tuple[str, LabelKey], Histogram] = field(
        default_factory=dict
    )
    _sketches: dict[tuple[str, LabelKey], QuantileSketch] = field(
        default_factory=dict
    )
    #: component-owned counter tables, read in place (see :meth:`collect`)
    _tables: list[dict[tuple[str, LabelKey], float]] = field(default_factory=list)
    #: relative-error bound for newly created sketches
    sketch_accuracy: float = 0.01

    # -- writes -------------------------------------------------------------------

    def inc(self, name: str, value: float = 1.0, **labels: object) -> None:
        """Add ``value`` to a monotonic counter (negative deltas rejected)."""
        if value < 0:
            raise ConfigurationError(f"counter {name} cannot decrease")
        key = (name, label_key(labels))
        self._counters[key] = self._counters.get(key, 0.0) + value

    def inc_each(self, name: str, values: Iterable[float]) -> None:
        """``inc(name, value)`` on the unlabelled series, for each value.

        The sum runs one value at a time, so the counter holds the same
        float as after the separate calls.
        """
        key = (name, ())
        total = self._counters.get(key, 0.0)
        for value in values:
            if value < 0:
                raise ConfigurationError(f"counter {name} cannot decrease")
            total += value
        self._counters[key] = total

    def collect(self, table: dict[tuple[str, LabelKey], float]) -> None:
        """Read ``table``'s cells, which its owner keeps adding to, as
        counters: each counter read sums them key by key with the
        registry's own cells and the other collected tables'."""
        self._tables.append(table)

    def set_gauge(self, name: str, value: float, **labels: object) -> None:
        self._gauges[(name, label_key(labels))] = float(value)

    def observe(
        self, name: str, value: float, n: int = 1, **labels: object
    ) -> None:
        """Record ``value`` (``n`` times) in the histogram and the sketch."""
        key = (name, label_key(labels))
        hist = self._histograms.get(key)
        if hist is None:
            hist = self._histograms[key] = Histogram(DEFAULT_BUCKET_EDGES)
        hist.observe(value, n)
        sketch = self._sketches.get(key)
        if sketch is None:
            sketch = self._sketches[key] = QuantileSketch(
                relative_accuracy=self.sketch_accuracy
            )
        sketch.observe(value, n)

    # -- reads --------------------------------------------------------------------

    def _counter_cells(self) -> dict[tuple[str, LabelKey], float]:
        """The registry's own counter cells merged with every collected
        table's: the one view all counter reads go through."""
        if not self._tables:
            return self._counters
        cells = dict(self._counters)
        for table in self._tables:
            for key, value in table.items():
                cells[key] = cells.get(key, 0.0) + value
        return cells

    def counter(self, name: str, **labels: object) -> float:
        return self._counter_cells().get((name, label_key(labels)), 0.0)

    def gauge(self, name: str, **labels: object) -> float:
        return self._gauges.get((name, label_key(labels)), 0.0)

    def counters(self) -> Iterator[tuple[str, LabelKey, float]]:
        for (name, labels), value in sorted(self._counter_cells().items()):
            yield name, labels, value

    def counter_items(self) -> Iterator[tuple[str, LabelKey, float]]:
        """Counters unsorted — for aggregating readers (the
        health engine sums these every round) that don't need the
        sorted view and shouldn't pay for one."""
        for (name, labels), value in self._counter_cells().items():
            yield name, labels, value

    def gauges(self) -> Iterator[tuple[str, LabelKey, float]]:
        for (name, labels), value in sorted(self._gauges.items()):
            yield name, labels, value

    def histograms(self) -> Iterator[tuple[str, LabelKey, Histogram]]:
        for (name, labels), hist in sorted(self._histograms.items()):
            yield name, labels, hist

    def sketches(self) -> Iterator[tuple[str, LabelKey, QuantileSketch]]:
        for (name, labels), sketch in sorted(self._sketches.items()):
            yield name, labels, sketch

    def series(self, name: str) -> dict[LabelKey, float]:
        """All labelled cells of one counter/gauge name, deterministic order."""
        out: dict[LabelKey, float] = {}
        for store in (self._counter_cells(), self._gauges):
            for (metric, labels), value in sorted(store.items()):
                if metric == name:
                    out[labels] = value
        return out

    def snapshot(self) -> dict:
        """A JSON-able copy of everything, deterministically ordered."""
        return {
            "counters": {
                format_metric(name, labels): value
                for name, labels, value in self.counters()
            },
            "gauges": {
                format_metric(name, labels): value
                for name, labels, value in self.gauges()
            },
            "histograms": {
                format_metric(name, labels): hist.as_dict()
                for name, labels, hist in self.histograms()
            },
            "sketches": {
                format_metric(name, labels): sketch.as_dict()
                for name, labels, sketch in self.sketches()
            },
        }
