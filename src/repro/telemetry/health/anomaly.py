"""EWMA / z-score anomaly detection over per-round counter deltas.

Burn-rate alerts police *declared* objectives; the anomaly detector
watches everything else.  For each counter it sees (``serving.*``,
``recovery.*``, ``arq.*`` by default), it tracks an exponentially
weighted moving average and variance of the per-TDMA-round delta and
flags rounds whose delta sits more than :data:`Z_THRESHOLD` deviations from
the running mean — a retry storm, a breaker flapping, an ARQ
retransmission spike — without anyone having written a threshold for
that counter.

The detector is pure integer/float arithmetic over the registry's
deltas: no randomness, no wall clock, so the flagged-excursion stream
is a deterministic function of the scenario seed.  A warm-up round
count suppresses flags until the EWMA has seen enough data to mean
anything, and an absolute floor on the deviation keeps near-constant
counters (delta 2, 2, 2, 3...) from flagging on trivial jitter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field



#: EWMA smoothing factor (weight of the newest delta)
ALPHA = 0.25
#: flag when |delta - mean| > Z_THRESHOLD * std
Z_THRESHOLD = 4.0
#: rounds a counter must be seen before it may flag
WARMUP_ROUNDS = 8
#: absolute floor on the deviation that may flag (suppresses noise on
#: near-constant counters)
MIN_DEVIATION = 3.0
#: counter-name prefixes to watch
PREFIXES = ("serving.", "recovery.", "arq.")


@dataclass(frozen=True)
class Anomaly:
    """One flagged rate excursion."""

    metric: str
    round_index: int
    t_ms: float
    delta: float
    mean: float
    z_score: float

    def as_dict(self) -> dict:
        return {
            "metric": self.metric,
            "round": self.round_index,
            "t_ms": self.t_ms,
            "delta": self.delta,
            "mean": self.mean,
            "z_score": self.z_score,
        }


@dataclass
class _SeriesState:
    mean: float = 0.0
    var: float = 0.0
    rounds: int = 0


@dataclass
class AnomalyDetector:
    """Flags counters whose per-round delta leaves its EWMA band."""

    _series: dict[str, _SeriesState] = field(default_factory=dict)
    anomalies: list[Anomaly] = field(default_factory=list)

    def watches(self, metric: str) -> bool:
        return metric.startswith(PREFIXES)

    def observe(
        self, metric: str, round_index: int, t_ms: float, delta: float
    ) -> Anomaly | None:
        """Feed one counter's per-round delta; returns a flag or None.

        The state update always happens (an anomalous round still
        informs the moving average — a persistent shift stops flagging
        once the EWMA catches up, which is the desired re-arm
        behaviour).
        """
        state = self._series.get(metric)
        if state is None:
            state = self._series[metric] = _SeriesState()
        flagged: Anomaly | None = None
        if state.rounds >= WARMUP_ROUNDS:
            std = math.sqrt(state.var)
            deviation = abs(delta - state.mean)
            band = max(Z_THRESHOLD * std, MIN_DEVIATION)
            if deviation > band:
                z = deviation / std if std > 0 else float("inf")
                flagged = Anomaly(
                    metric=metric,
                    round_index=round_index,
                    t_ms=t_ms,
                    delta=delta,
                    mean=state.mean,
                    z_score=z,
                )
                self.anomalies.append(flagged)
        err = delta - state.mean
        state.mean += ALPHA * err
        state.var = (1 - ALPHA) * (state.var + ALPHA * err * err)
        state.rounds += 1
        return flagged
