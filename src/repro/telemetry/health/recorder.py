"""The incident flight recorder: a bounded ring of recent evidence.

A fleet-wide debugging session starts with "what was happening right
before the alert fired?".  The flight recorder answers it the way an
aircraft FDR does: a bounded ring buffer continuously records the most
recent spans, per-round metric deltas, and reliability-layer
transitions (circuit breakers latching, brownout tier changes,
coordinator failovers, shed requests), and the moment an alert fires
the whole ring is snapshotted into a JSON *incident bundle* — the
triggering alert plus the evidence trail that led to it.

Entries are plain dicts with a ``kind`` tag so bundles serialise
directly; the ring is a ``deque(maxlen=...)`` so recording is O(1) and
the memory bound is hard.  Recording is strictly append-only and
side-effect-free: attaching a recorder to a server cannot change a
single byte of its response log (tested).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

#: ring capacity (oldest entries drop first)
CAPACITY = 256
#: incident bundles retained (oldest drop first)
MAX_INCIDENTS = 16


@dataclass
class FlightRecorder:
    """Bounded ring buffer of health evidence + incident bundles."""

    bundles: list[dict] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._ring: deque[dict] = deque(maxlen=CAPACITY)
        self._seq = 0

    def __len__(self) -> int:
        return len(self._ring)

    def record(self, kind: str, t_ms: float, **detail: object) -> None:
        """Append one entry to the ring (O(1), oldest dropped)."""
        self._seq += 1
        self._ring.append(
            {"seq": self._seq, "kind": kind, "t_ms": float(t_ms), **detail}
        )

    def snapshot_incident(
        self,
        alert: dict,
        *,
        recent_spans: list[dict] | None = None,
        slo_statuses: list[dict] | None = None,
        quantiles: dict | None = None,
    ) -> dict:
        """Freeze the ring into one incident bundle when an alert fires.

        The bundle is self-contained JSON: the triggering alert, every
        ring entry (breaker/brownout/failover transitions, waves, metric
        deltas, earlier anomalies...), the spans that led up to it, and
        the SLO scoreboard at the moment of the incident.
        """
        bundle = {
            "incident": len(self.bundles) + 1,
            "alert": alert,
            "entries": list(self._ring),
            "spans": list(recent_spans) if recent_spans is not None else [],
            "slo_statuses": (
                list(slo_statuses) if slo_statuses is not None else []
            ),
            "quantiles": dict(quantiles) if quantiles is not None else {},
        }
        self.bundles.append(bundle)
        if len(self.bundles) > MAX_INCIDENTS:
            del self.bundles[:-MAX_INCIDENTS]
        return bundle
