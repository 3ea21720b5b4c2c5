"""Label-aware metrics registry: counters, gauges, quantile sketches.

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
class MetricsRegistry:
    """Counters, gauges, and quantile sketches for one run.

    ``observe()`` writes each sample into its series' mergeable
    :class:`~repro.telemetry.health.sketch.QuantileSketch`, the one
    store of observed values.  Its count, sum, min and max feed the
    exporters; its quantiles carry a *relative* error (±1 % at any
    magnitude); sketches from different nodes/labels merge exactly.
    """

    _counters: dict[tuple[str, LabelKey], float] = field(
        init=False, default_factory=dict
    )
    _gauges: dict[tuple[str, LabelKey], float] = field(
        init=False, default_factory=dict
    )
    _sketches: dict[tuple[str, LabelKey], QuantileSketch] = field(
        init=False, default_factory=dict
    )
    #: component-owned counter tables, read in place (see :meth:`collect`)
    _tables: list[dict[tuple[str, LabelKey], float]] = field(
        init=False, default_factory=list
    )

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
        """Record ``value`` (``n`` times) in the series' sketch.

        A new series' sketch is stored only once it holds a value, so
        the exporters never meet an empty one.
        """
        key = (name, label_key(labels))
        sketch = self._sketches.get(key)
        if sketch is None:
            sketch = QuantileSketch()
            sketch.observe(value, n)
            self._sketches[key] = sketch
        else:
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
            "sketches": {
                format_metric(name, labels): sketch.as_dict()
                for name, labels, sketch in self.sketches()
            },
        }
