"""The health engine: registry → SLO verdicts, anomalies, incidents.

:class:`HealthEngine` is the glue between the passive telemetry layer
and the health primitives.  At every TDMA-round boundary of simulated
time it samples the metrics registry (summing counters across label
sets), feeds the per-round deltas to the :class:`~.slo.SLOEngine` and
the :class:`~.anomaly.AnomalyDetector`, appends the evidence to the
:class:`~.recorder.FlightRecorder`, and — when a burn-rate alert fires —
snapshots an incident bundle with the recent span tail.

The engine is **strictly observational**: it reads the registry and
tracer, and writes only ``health.*`` metrics, instant trace markers,
and its own state.  Attaching one to a run therefore cannot change a
byte of the run's outputs (the serving determinism contract, tested in
``tests/test_health.py``).  With :data:`~repro.telemetry.NULL_TELEMETRY`
there is nothing to observe and every method is a no-op.
"""

from __future__ import annotations

from repro.telemetry.health.anomaly import AnomalyDetector
from repro.telemetry.health.recorder import FlightRecorder
from repro.telemetry.health.sketch import QuantileSketch
from repro.telemetry.health.slo import SLO, Alert, SLOEngine
from repro.units import ROUND_MS

#: The default serving SLO portfolio, calibrated against the seeded
#: chaos storms (see DESIGN.md "Health & SLO model" for the numbers).
#: The mild storm must ride out its single rebooting crash without an
#: alert, while the moderate storm's *second* coverage excursion must
#: trip the fast-burn window: with a 10-round window and an 18-event
#: request-count guard, the mild storm's peak coverage burn is 2.9x
#: budget versus the moderate storm's 6.7x, so the 4.5x threshold has
#: ~1.5x headroom on both sides.
DEFAULT_SERVING_SLOS: tuple[SLO, ...] = (
    SLO(
        name="serving-availability",
        objective=0.99,
        bad_counters=("serving.shed",),
        total_counters=("serving.submitted", "serving.shed"),
        window_rounds=(6, 32),
        burn_rate_thresholds=(25.0, 10.0),
        window_min_events=(10, 20),
        description="admitted / offered requests (shed = bad)",
    ),
    SLO(
        name="serving-coverage",
        objective=0.95,
        bad_counters=("serving.sla_violation",),
        total_counters=("serving.completed",),
        window_rounds=(10, 32),
        burn_rate_thresholds=(4.5, 2.5),
        window_min_events=(18, 40),
        description="answers meeting their coverage SLA",
    ),
    SLO(
        name="serving-deadline",
        objective=0.95,
        bad_counters=("serving.deadline_miss",),
        total_counters=("serving.completed",),
        window_rounds=(6, 32),
        burn_rate_thresholds=(10.0, 4.0),
        window_min_events=(10, 20),
        description="answers finishing before their deadline",
    ),
    SLO(
        name="serving-latency-p99",
        objective=0.90,
        latency_metric="serving.latency_ms",
        latency_quantile=0.99,
        latency_threshold_ms=600.0,
        window_rounds=(6, 32),
        burn_rate_thresholds=(6.0, 3.0),
        description="per-round p99 latency under 600 ms",
    ),
    # Quiet unless the partition stack is wired: the recovery.fencing.*
    # counters only move when an epoch fence is making decisions, and
    # the min-events guards keep partition-free storms (mild/moderate
    # calibration) from ever evaluating the windows.
    SLO(
        name="coordination-fencing",
        objective=0.999,
        bad_counters=("recovery.fencing.accepted_stale",),
        total_counters=("recovery.fencing.rejected",
                        "recovery.fencing.accepted_stale"),
        window_rounds=(6, 32),
        burn_rate_thresholds=(4.0, 2.0),
        window_min_events=(4, 12),
        description="stale-epoch checkpoint writes fenced (accepted = bad)",
    ),
)


#: newest spans included in an incident bundle
INCIDENT_SPAN_TAIL = 40


class HealthEngine:
    """Samples one telemetry handle into SLO verdicts and incidents."""

    def __init__(
        self,
        telemetry,
        slos: tuple[SLO, ...] = DEFAULT_SERVING_SLOS,
    ) -> None:
        self.telemetry = telemetry
        self.enabled = bool(getattr(telemetry, "enabled", False))
        self.slo_engine = SLOEngine(tuple(slos))
        self.anomaly = AnomalyDetector()
        self.recorder = FlightRecorder()
        self.alerts: list[Alert] = []
        self._last_round = -1
        self._last_totals: dict[str, float] = {}
        self._latency_snapshots: dict[str, QuantileSketch] = {}
        self._latency_counts: dict[str, int] = {}
        if self.enabled:
            # Observation starts *now*: counters already on the registry
            # (an earlier storm, ingest) are baseline, not round-0 deltas.
            self._last_totals = self._totals()
            for slo in self.slo_engine.slos:
                if slo.latency_metric is not None:
                    snap = self._metric_sketch(slo.latency_metric)
                    self._latency_snapshots[slo.latency_metric] = snap
                    self._latency_counts[slo.latency_metric] = snap.count

    # -- wiring --------------------------------------------------------------------

    def attach_server(self, server) -> None:
        """Feed a :class:`~repro.serving.server.QueryServer`'s transitions
        in."""
        server.recorder = self.recorder

    # -- sampling ------------------------------------------------------------------

    def observe_to(self, t_ms: float) -> list[Alert]:
        """Sample every TDMA round completed strictly before ``t_ms``."""
        if not self.enabled:
            return []
        fired: list[Alert] = []
        completed = int(t_ms // ROUND_MS)
        while self._last_round + 1 < completed:
            round_index = self._last_round + 1
            fired.extend(
                self._sample_round(
                    round_index, (round_index + 1) * ROUND_MS
                )
            )
        return fired

    def finalize(self, t_ms: float) -> list[Alert]:
        """Sample up to ``t_ms`` plus one residual partial round."""
        if not self.enabled:
            return []
        fired = self.observe_to(t_ms)
        fired.extend(self._sample_round(self._last_round + 1, t_ms))
        return fired

    def _totals(self) -> dict[str, float]:
        """Counters summed across label sets (``health.*`` excluded)."""
        totals: dict[str, float] = {}
        for name, _labels, value in self.telemetry.registry.counter_items():
            if name.startswith("health."):
                continue
            totals[name] = totals.get(name, 0.0) + value
        return totals

    def _metric_sketch(self, metric: str) -> QuantileSketch:
        """All label cells of one sketch metric, merged (mergeability!)."""
        merged: QuantileSketch | None = None
        for name, _labels, sk in self.telemetry.registry.sketches():
            if name == metric:
                if merged is None:
                    merged = sk.copy()
                else:
                    merged.merge(sk)
        return merged if merged is not None else QuantileSketch()

    def _sample_round(self, round_index: int, t_ms: float) -> list[Alert]:
        tel = self.telemetry
        totals = self._totals()
        deltas = {
            name: totals[name] - self._last_totals.get(name, 0.0)
            for name in totals
        }

        # evidence trail: the round's nonzero watched counter deltas
        watched = {
            name: delta
            for name, delta in sorted(deltas.items())
            if delta and self.anomaly.watches(name)
        }
        if watched:
            self.recorder.record(
                "metrics", t_ms, round=round_index, deltas=watched
            )

        # anomaly detection over every watched counter ever seen (a
        # counter going quiet is as interesting as one spiking)
        for name in sorted(self._last_totals | totals):
            if not self.anomaly.watches(name):
                continue
            flagged = self.anomaly.observe(
                name, round_index, t_ms, deltas.get(name, 0.0)
            )
            if flagged is not None:
                detail = flagged.as_dict()
                detail.pop("t_ms")
                self.recorder.record("anomaly", t_ms, **detail)
                tel.inc("health.anomalies", metric=name)
                tel.instant(
                    "health-anomaly", metric=name,
                    z=round(flagged.z_score, 2), delta=flagged.delta,
                )

        # SLO evaluation
        fired: list[Alert] = []
        for slo in self.slo_engine.slos:
            if slo.latency_metric is not None:
                metric = slo.latency_metric
                # merging every label cell per round is the engine's one
                # hot spot; a cheap count probe skips it on quiet rounds
                count_now = sum(
                    sk.count
                    for name, _labels, sk in self.telemetry.registry.sketches()
                    if name == metric
                )
                if count_now == self._latency_counts.get(metric, 0):
                    bad = total = 0
                else:
                    current = self._metric_sketch(metric)
                    previous = self._latency_snapshots.get(metric)
                    window = (
                        current.delta_since(previous)
                        if previous is not None
                        else current
                    )
                    # _metric_sketch returns a fresh merge, safe to keep
                    self._latency_snapshots[metric] = current
                    self._latency_counts[metric] = count_now
                    bad = int(
                        window.quantile(slo.latency_quantile)
                        > slo.latency_threshold_ms
                    )
                    total = 1
            else:
                bad = int(round(sum(deltas.get(c, 0.0) for c in slo.bad_counters)))
                total = int(
                    round(sum(deltas.get(c, 0.0) for c in slo.total_counters))
                )
                bad = min(bad, total)
            fired.extend(
                self.slo_engine.observe(slo.name, round_index, t_ms, bad, total)
            )

        for alert in fired:
            self._book_alert(alert)

        self._last_totals = totals
        self._last_round = round_index
        tel.set_gauge("health.rounds_observed", round_index + 1)
        return fired

    def _book_alert(self, alert: Alert) -> None:
        tel = self.telemetry
        tel.inc("health.alerts", slo=alert.slo, severity=alert.severity)
        tel.instant(
            "health-alert", slo=alert.slo, severity=alert.severity,
            burn=round(alert.burn_rate, 2),
        )
        quantiles = {}
        for slo in self.slo_engine.slos:
            if slo.latency_metric is not None:
                sketch = self._metric_sketch(slo.latency_metric)
                quantiles[slo.latency_metric] = {
                    "p50": sketch.quantile(0.50),
                    "p90": sketch.quantile(0.90),
                    "p99": sketch.quantile(0.99),
                }
        spans = [
            s.as_dict()
            for s in self.telemetry.tracer.spans[-INCIDENT_SPAN_TAIL:]
        ]
        self.recorder.snapshot_incident(
            alert.as_dict(),
            recent_spans=spans,
            slo_statuses=[s.as_dict() for s in self.slo_engine.statuses()],
            quantiles=quantiles,
        )
        detail = alert.as_dict()
        detail.pop("t_ms")
        self.recorder.record("alert", alert.t_ms, **detail)
        self.alerts.append(alert)

    # -- reporting -----------------------------------------------------------------

    @property
    def healthy(self) -> bool:
        """No alerts fired and every SLO met over the whole run."""
        return not self.alerts and all(
            s.met for s in self.slo_engine.statuses()
        )

    def report(self) -> dict:
        """The JSON health verdict: SLOs, alerts, anomalies, incidents."""
        return {
            "enabled": self.enabled,
            "round_ms": ROUND_MS,
            "rounds_observed": self._last_round + 1,
            "healthy": self.healthy,
            "slos": [s.as_dict() for s in self.slo_engine.statuses()],
            "alerts": [a.as_dict() for a in self.slo_engine.alerts()],
            "anomalies": [a.as_dict() for a in self.anomaly.anomalies],
            "incidents": list(self.recorder.bundles),
        }
