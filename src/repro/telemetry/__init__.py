"""Zero-dependency metrics and tracing for the SCALO reproduction.

The subsystem has three moving parts, all keyed to *simulated* time
(TDMA slots, packet airtimes, analytical-model microseconds — never the
host clock; wall-clock cost is measured from outside, by the bench's
layer tracer):

* :class:`~repro.telemetry.registry.MetricsRegistry` — counters, gauges,
  one quantile sketch per observed series;
* :class:`~repro.telemetry.tracer.Tracer` — nested spans with trace-id
  propagation across node boundaries via packet metadata;
* exporters — JSON, CSV, and Chrome trace-event format
  (:mod:`repro.telemetry.exporters`).

Components receive an injectable :class:`Telemetry` handle; the default
is the no-op :data:`NULL_TELEMETRY` singleton, which keeps hot paths
unchanged and guarantees (tested) that instrumentation adds zero packets
and zero events to a seeded scenario.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import TYPE_CHECKING

# The handles below are defined here; these imports are what they use.
from repro.telemetry.clock import SimClock
from repro.telemetry.exporters import telemetry_json
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.tracer import TraceContext, Tracer

if TYPE_CHECKING:
    from repro.telemetry.tracer import Span

__all__ = ["NULL_TELEMETRY", "NullTelemetry", "Telemetry", "TelemetryLike"]


class _NullSpan:
    """A reusable, stateless no-op context manager."""

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTelemetry:
    """The do-nothing handle components hold by default.

    Every method is a no-op returning a shared null object, so the
    instrumented hot paths cost one attribute load and one call — and
    consume no randomness, no packets, and no simulated time.
    """

    enabled = False

    def inc(self, name: str, value: float = 1.0, **labels: object) -> None:
        pass

    def set_gauge(self, name: str, value: float, **labels: object) -> None:
        pass

    def collect(self, table: dict) -> None:
        pass

    def observe(self, name: str, value: float, **labels: object) -> None:
        pass

    def advance_us(self, delta_us: float) -> None:
        pass

    def advance_ms(self, delta_ms: float) -> None:
        pass

    def span(
        self, name: str, trace: TraceContext | None = None, **attrs: object
    ) -> _NullSpan:
        return _NULL_SPAN

    def instant(self, name: str, **attrs: object) -> None:
        pass

    def current_context(self) -> TraceContext | None:
        return None


#: The shared default handle: instrumented code holds this unless a real
#: :class:`Telemetry` is injected.
NULL_TELEMETRY = NullTelemetry()


class Telemetry:
    """A live handle: one clock, one registry, one tracer.

    The metric and clock writes run on the serving hot path, so each
    instance binds them straight to their targets instead of through a
    delegating method: ``inc(name, value=1.0, **labels)``,
    ``set_gauge(name, value, **labels)``, ``observe(name, value,
    **labels)`` and ``collect(table)`` are the registry's,
    ``advance_us(delta_us)`` and ``advance_ms(delta_ms)`` the clock's.
    """

    enabled = True
    inc: Callable[..., None]
    collect: Callable[[dict], None]
    set_gauge: Callable[..., None]
    observe: Callable[..., None]
    advance_us: Callable[[float], None]
    advance_ms: Callable[[float], None]

    def __init__(self) -> None:
        self.clock = SimClock()
        self.registry = MetricsRegistry()
        self.tracer = Tracer(clock=self.clock)
        self.inc = self.registry.inc
        self.set_gauge = self.registry.set_gauge
        self.observe = self.registry.observe
        self.collect = self.registry.collect
        self.advance_us = self.clock.advance_us
        self.advance_ms = self.clock.advance_ms

    # -- tracing ------------------------------------------------------------------

    def span(self, name: str, trace: TraceContext | None = None,
             **attrs: object):
        return self.tracer.span(name, trace=trace, **attrs)

    def instant(self, name: str, **attrs: object) -> None:
        """Record a zero-duration marker span (a Chrome ``i`` event).

        Use for point-in-time fleet events — breaker transitions,
        brownout tier changes, failovers, fired alerts — that a
        duration span would misrepresent.
        """
        with self.tracer.span(name, instant=True, **attrs):
            pass

    def current_context(self) -> TraceContext | None:
        return self.tracer.current_context()

    # -- export conveniences ------------------------------------------------------

    def snapshot(self) -> dict:
        return telemetry_json(self.registry, self.tracer)

#: What instrumented dataclass fields accept.
TelemetryLike = Telemetry | NullTelemetry
