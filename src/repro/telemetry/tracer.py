"""Span-based tracing over simulated time.

A *span* is one timed operation (a query, a broadcast, one node's NVM
scan, one ARQ retry); spans nest through a stack, and a tree of spans
sharing one ``trace_id`` is a *trace* — one distributed operation seen
end to end.  The trace id crosses node boundaries inside
:class:`TraceContext` objects riding on packet metadata
(:attr:`repro.network.packet.Packet.trace`), so a receiver's span can
join the sender's trace exactly as W3C trace-context propagation does in
datacenter RPC stacks.

Ids are small monotonic integers, not random — the whole point of
simulated-time telemetry is that two runs of a seeded scenario are
byte-identical, ids included.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from repro.telemetry.clock import SimClock


@dataclass(frozen=True)
class TraceContext:
    """What crosses a node boundary: which trace, and which parent span."""

    trace_id: int
    span_id: int


@dataclass
class Span:
    """One timed operation in simulated microseconds."""

    name: str
    trace_id: int
    span_id: int
    parent_id: int | None
    start_us: float
    end_us: float | None = field(init=False, default=None)
    attrs: dict[str, object] = field(default_factory=dict)

    @property
    def duration_us(self) -> float:
        return (self.end_us - self.start_us) if self.end_us is not None else 0.0

    @property
    def context(self) -> TraceContext:
        return TraceContext(self.trace_id, self.span_id)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_us": self.start_us,
            "end_us": self.end_us,
            "attrs": dict(self.attrs),
        }


@dataclass
class Tracer:
    """Collects spans against one simulated clock."""

    clock: SimClock = field(default_factory=SimClock)
    spans: list[Span] = field(init=False, default_factory=list)

    def __post_init__(self) -> None:
        self._stack: list[Span] = []
        self._next_trace_id = 1
        self._next_span_id = 1

    # -- span lifecycle -----------------------------------------------------------

    def start_span(
        self,
        name: str,
        trace: TraceContext | None = None,
        **attrs: object,
    ) -> Span:
        """Open a span; prefer :meth:`span` unless you need manual closing.

        Parentage: an explicit ``trace`` (from packet metadata) wins, then
        the innermost open span, then a fresh trace id.
        """
        parent = self._stack[-1] if self._stack else None
        if trace is not None:
            trace_id, parent_id = trace.trace_id, trace.span_id
        elif parent is not None:
            trace_id, parent_id = parent.trace_id, parent.span_id
        else:
            trace_id, parent_id = self._next_trace_id, None
            self._next_trace_id += 1
        span = Span(
            name=name,
            trace_id=trace_id,
            span_id=self._next_span_id,
            parent_id=parent_id,
            start_us=self.clock.now_us,
            attrs=dict(attrs),
        )
        self._next_span_id += 1
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end_span(self, span: Span) -> None:
        if span.end_us is None:
            span.end_us = self.clock.now_us
        while self._stack and self._stack[-1].end_us is not None:
            self._stack.pop()

    @contextmanager
    def span(
        self,
        name: str,
        trace: TraceContext | None = None,
        **attrs: object,
    ) -> Iterator[Span]:
        span = self.start_span(name, trace=trace, **attrs)
        try:
            yield span
        finally:
            self.end_span(span)

    # -- queries ------------------------------------------------------------------

    def current_context(self) -> TraceContext | None:
        """The innermost open span's context (for packet metadata)."""
        return self._stack[-1].context if self._stack else None
