"""Telemetry exporters: JSON, CSV, and Chrome trace-event format.

The Chrome format is the ``chrome://tracing`` / Perfetto JSON schema:
one *complete* (``"ph": "X"``) event per finished span, with timestamps
in microseconds of *simulated* time.  Tracks (``tid``) are assigned from
the span's ``node`` attribute, so per-node work renders as one row per
implant with system-level spans on row 0.

Point-in-time fleet events ride the same span stream with marker
attributes (set by :meth:`~repro.telemetry.Telemetry.instant`):

* ``instant=True`` spans render as *instant* (``"ph": "i"``) events —
  breaker transitions, brownout tier changes, coordinator failovers,
  fired health alerts show up as tick marks on the timeline;
* ``counter=True`` spans render as *counter* (``"ph": "C"``) events —
  e.g. the brownout tier as a stepped series.
"""

from __future__ import annotations

import csv
import json
import pathlib

from repro.telemetry.registry import MetricsRegistry, format_metric
from repro.telemetry.tracer import Span, Tracer

#: The tid Chrome-trace events use for spans with no node attribute.
SYSTEM_TRACK = 0


def _span_tid(span: Span) -> int:
    node = span.attrs.get("node")
    try:
        return int(node) + 1  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return SYSTEM_TRACK


def chrome_trace_events(tracer: Tracer) -> dict:
    """Render finished spans as a Chrome trace-event JSON object."""
    events: list[dict] = [
        {
            "ph": "M",
            "pid": 0,
            "tid": SYSTEM_TRACK,
            "name": "process_name",
            "args": {"name": "scalo-sim"},
        }
    ]
    tids = sorted({_span_tid(s) for s in tracer.spans})
    for tid in tids:
        label = "system" if tid == SYSTEM_TRACK else f"node {tid - 1}"
        events.append(
            {
                "ph": "M",
                "pid": 0,
                "tid": tid,
                "name": "thread_name",
                "args": {"name": label},
            }
        )
    for span in tracer.spans:
        if span.end_us is None:
            continue
        args = {str(k): v for k, v in span.attrs.items()}
        if args.pop("counter", None):
            args.pop("instant", None)
            events.append(
                {
                    "ph": "C",
                    "pid": 0,
                    "name": span.name,
                    "ts": span.start_us,
                    "args": args,
                }
            )
            continue
        args["trace_id"] = span.trace_id
        args["span_id"] = span.span_id
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        if args.pop("instant", None):
            events.append(
                {
                    "ph": "i",
                    "pid": 0,
                    "tid": _span_tid(span),
                    "name": span.name,
                    "cat": span.name.split("-")[0],
                    "ts": span.start_us,
                    "s": "p",  # process-scoped tick mark
                    "args": args,
                }
            )
            continue
        events.append(
            {
                "ph": "X",
                "pid": 0,
                "tid": _span_tid(span),
                "name": span.name,
                "cat": span.name.split("-")[0],
                "ts": span.start_us,
                "dur": span.duration_us,
                "args": args,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def telemetry_json(registry: MetricsRegistry, tracer: Tracer | None = None) -> dict:
    """One JSON document holding the metrics snapshot and the span list."""
    doc = {"metrics": registry.snapshot()}
    if tracer is not None:
        doc["spans"] = [span.as_dict() for span in tracer.spans]
    return doc


def write_chrome_trace(tracer: Tracer, path: str | pathlib.Path) -> pathlib.Path:
    path = pathlib.Path(path)
    path.write_text(json.dumps(chrome_trace_events(tracer)))
    return path


def write_metrics_csv(
    registry: MetricsRegistry, path: str | pathlib.Path
) -> pathlib.Path:
    """Flat CSV: one row per counter/gauge cell and per histogram summary."""
    path = pathlib.Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["kind", "metric", "value", "count", "min", "max"])
        for name, labels, value in registry.counters():
            writer.writerow(
                ["counter", format_metric(name, labels), value, "", "", ""]
            )
        for name, labels, value in registry.gauges():
            writer.writerow(
                ["gauge", format_metric(name, labels), value, "", "", ""]
            )
        for name, labels, hist in registry.histograms():
            writer.writerow(
                [
                    "histogram",
                    format_metric(name, labels),
                    hist.total,
                    hist.n,
                    hist.min_value if hist.n else "",
                    hist.max_value if hist.n else "",
                ]
            )
    return path
