"""Tiny text-report helpers shared by the experiment drivers.

Besides the generic :func:`format_table`, this module renders telemetry:
:func:`telemetry_summary` turns a metrics registry into counter/gauge/
histogram tables and :func:`span_summary` aggregates a tracer's spans by
name — the text the ``python -m repro trace`` CLI prints.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from repro.telemetry.registry import MetricsRegistry
    from repro.telemetry.tracer import Tracer


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    precision: int = 2,
) -> str:
    """Render rows as a fixed-width text table."""

    def render(cell: object) -> str:
        if isinstance(cell, float):
            return f"{cell:.{precision}f}"
        return str(cell)

    rendered = [[render(c) for c in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in rendered)) if rendered else len(h)
        for i, h in enumerate(headers)
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rendered:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def telemetry_summary(registry: "MetricsRegistry", precision: int = 2) -> str:
    """Render a registry as counter / gauge / histogram tables."""
    from repro.telemetry.registry import format_metric

    sections: list[str] = []
    counter_rows = [
        (format_metric(name, labels), value)
        for name, labels, value in registry.counters()
    ]
    if counter_rows:
        sections.append("== counters ==\n" + format_table(
            ("counter", "value"), counter_rows, precision=precision
        ))
    gauge_rows = [
        (format_metric(name, labels), value)
        for name, labels, value in registry.gauges()
    ]
    if gauge_rows:
        sections.append("== gauges ==\n" + format_table(
            ("gauge", "value"), gauge_rows, precision=precision
        ))
    hist_rows = [
        (
            format_metric(name, labels),
            hist.n,
            hist.mean,
            hist.min_value if hist.n else 0.0,
            hist.max_value if hist.n else 0.0,
        )
        for name, labels, hist in registry.histograms()
    ]
    if hist_rows:
        sections.append("== histograms ==\n" + format_table(
            ("histogram", "count", "mean", "min", "max"),
            hist_rows,
            precision=precision,
        ))
    return "\n\n".join(sections) if sections else "(no metrics recorded)"


def span_summary(tracer: "Tracer", precision: int = 2) -> str:
    """Aggregate finished spans by name: count and simulated-time totals."""
    by_name: dict[str, list[float]] = {}
    n_traces = len({s.trace_id for s in tracer.spans})
    for span in tracer.spans:
        if span.end_us is None:
            continue
        by_name.setdefault(span.name, []).append(span.duration_us)
    rows = [
        (
            name,
            len(durations),
            sum(durations) / 1e3,
            sum(durations) / len(durations) / 1e3,
        )
        for name, durations in sorted(by_name.items())
    ]
    if not rows:
        return "(no spans recorded)"
    table = format_table(
        ("span", "count", "total_ms", "mean_ms"), rows, precision=precision
    )
    return f"== spans ({n_traces} traces) ==\n{table}"
