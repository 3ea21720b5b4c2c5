"""Fleet health engine: sketches, SLOs, anomaly detection, flight recorder.

Four cooperating pieces turn the raw counters and spans of PR 2's
telemetry layer into *health verdicts*:

* :class:`~repro.telemetry.health.sketch.QuantileSketch` — a
  deterministic, mergeable quantile sketch (DDSketch-style
  relative-error buckets).  Merging is associative and commutative, so
  per-node sketches fold into fleet sketches in any order — the
  aggregation substrate for multi-site operation.
* :class:`~repro.telemetry.health.slo.SLO` /
  :class:`~repro.telemetry.health.slo.SLOEngine` — declarative
  objectives over rolling simulated-time windows with multi-window
  burn-rate alerting (fast-burn and slow-burn), emitting deterministic
  :class:`~repro.telemetry.health.slo.Alert` events.
* :class:`~repro.telemetry.health.anomaly.AnomalyDetector` — EWMA /
  z-score excursions over per-round counter deltas (``serving.*``,
  ``recovery.*``, ``arq.*``).
* :class:`~repro.telemetry.health.recorder.FlightRecorder` — a bounded
  ring buffer of recent spans, metric deltas, and
  breaker/brownout/failover transitions, snapshotted into a JSON
  incident bundle whenever an alert fires.

:class:`~repro.telemetry.health.engine.HealthEngine` ties them together
and is strictly observational: it reads the registry and tracer at TDMA
round boundaries and never feeds back into serving decisions, so a run
with a health engine attached is byte-identical to one without.
"""
