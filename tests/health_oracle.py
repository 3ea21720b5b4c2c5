"""The two-pass health sample: the reference ``HealthEngine._sample_round``
is checked against.

Each round it builds the delta of every counter name, records the
nonzero watched ones as evidence, then walks the union of the last and
the current round's names a second time, asking ``watches`` again, to
feed the anomaly detector (a name missing from the round reads a zero
delta).  The engine makes one sorted pass over the watched names
instead, which is the same walk because counters never leave the
registry.
"""

from __future__ import annotations

from repro.telemetry.health.engine import HealthEngine
from repro.telemetry.health.slo import Alert


class TwoPassHealthEngine(HealthEngine):
    """:class:`HealthEngine` with the two-pass round sample."""

    def _sample_round(self, round_index: int, t_ms: float) -> list[Alert]:
        tel = self.telemetry
        totals = self._totals()
        deltas = {
            name: totals[name] - self._last_totals.get(name, 0.0)
            for name in totals
        }

        watched = {
            name: delta
            for name, delta in sorted(deltas.items())
            if delta and self.anomaly.watches(name)
        }
        if watched:
            self.recorder.record(
                "metrics", t_ms, round=round_index, deltas=watched
            )

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

        fired: list[Alert] = []
        for slo in self.slo_engine.slos:
            if slo.latency_metric is not None:
                metric = slo.latency_metric
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
