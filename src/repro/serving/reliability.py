"""Request-reliability primitives: retries, circuit breakers, brownouts.

Three mechanisms keep the serving layer answering while a fault storm
rages, all deterministic in simulated milliseconds:

* :class:`RetryPolicy` — bounded attempts with exponential backoff and
  **decorrelated jitter**, derived from a seeded RNG keyed on
  ``(seed, request key, attempt)``, so every backoff is a pure function
  of the policy and the request.  Used client-side (the load generator
  honours ``retry_after_ms`` on shed) and server-side (coverage-SLA
  re-execution once the health layer reports nodes recovered).
* :class:`CircuitBreaker` / :class:`BreakerBoard` — per-node breakers:
  ``closed`` → ``open`` after ``failure_threshold`` consecutive failed
  wave contributions, ``open`` → ``half_open`` after ``open_ms`` of
  simulated time, then one probe wave decides ``closed`` vs re-``open``.
  A latched (open) node is skipped without paying the per-wave failed
  contribution timeout, so a flapping node stops poisoning wave latency.
* :class:`BrownoutController` — graded degradation between "healthy"
  and "shed": tier 1 shrinks the scanned window range, tier 2 answers
  from the signature cache only (no NVM reads), tier 3 rejects new
  admissions outright.  The tier is a pure function of the current
  queue depth and the deadline-miss rate over a sliding window of
  recent completions, so it replays byte-identically.

Nothing here reads a wall clock or a telemetry handle; all state
machines advance on caller-supplied simulated timestamps.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError

# -- retries -------------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with seeded, decorrelated jitter.

    ``backoff_ms(key, attempt)`` follows the classic decorrelated-jitter
    recurrence — ``sleep = min(cap, uniform(base, 3 * prev))`` — but the
    randomness comes from ``default_rng((seed, key))``, so the whole
    backoff sequence is a deterministic function of the policy, the
    request key, and the attempt index.  ``attempt`` counts *prior*
    tries: attempt 0 is the first retry.
    """

    max_attempts: int = 3  # total attempts, including the first
    base_ms: float = 50.0
    cap_ms: float = 2000.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError("need at least one attempt")
        if self.base_ms <= 0:
            raise ConfigurationError("backoff base must be positive")
        if self.cap_ms < self.base_ms:
            raise ConfigurationError("backoff cap must be >= base")

    def allows(self, attempt: int) -> bool:
        """May a request run its ``attempt``-th retry (0-based)?"""
        return attempt + 1 < self.max_attempts

    def backoff_ms(self, key: int, attempt: int) -> float:
        """Simulated ms to wait before retry number ``attempt`` (0-based)."""
        rng = np.random.default_rng((self.seed, int(key) & 0x7FFFFFFF))
        sleep = self.base_ms
        for _ in range(attempt + 1):
            sleep = min(self.cap_ms, float(rng.uniform(self.base_ms, 3 * sleep)))
        return sleep


# -- circuit breakers ----------------------------------------------------------


class BreakerState(enum.Enum):
    """The classic three-state breaker."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


@dataclass(frozen=True)
class BreakerConfig:
    """Tunables for one per-node circuit breaker."""

    #: consecutive failed wave contributions before the breaker opens
    failure_threshold: int = 3
    #: simulated ms an open breaker latches before allowing a probe
    open_ms: float = 400.0

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ConfigurationError("failure threshold must be positive")
        if self.open_ms <= 0:
            raise ConfigurationError("open duration must be positive")


@dataclass
class CircuitBreaker:
    """One node's breaker: closed → open → half-open → closed/open.

    ``allow(now)`` answers "should this wave attempt the node?" and is
    where the open → half-open transition fires (time-based).  The wave
    then reports the outcome via :meth:`record_success` /
    :meth:`record_failure`.  Every transition is appended to
    ``transitions`` as ``(now_ms, from_state, to_state)`` — the
    deterministic record the reproducibility tests compare.
    """

    config: BreakerConfig = field(default_factory=BreakerConfig)
    state: BreakerState = BreakerState.CLOSED
    consecutive_failures: int = 0
    opened_at_ms: float = 0.0
    transitions: list[tuple[float, str, str]] = field(default_factory=list)

    def _move(self, now_ms: float, to: BreakerState) -> None:
        self.transitions.append((now_ms, self.state.value, to.value))
        self.state = to

    def allow(self, now_ms: float) -> bool:
        """True when the node should be attempted in a wave at ``now_ms``."""
        if self.state is BreakerState.OPEN:
            if now_ms - self.opened_at_ms >= self.config.open_ms:
                self._move(now_ms, BreakerState.HALF_OPEN)
                return True
            return False
        return True

    def force_probe(self, now_ms: float) -> None:
        """External recovery evidence: an open breaker moves to half-open.

        The health layer reporting a node back is stronger information
        than the hold-off timer; the next wave probes the node instead
        of waiting out ``open_ms``.
        """
        if self.state is BreakerState.OPEN:
            self._move(now_ms, BreakerState.HALF_OPEN)

    def record_success(self, now_ms: float) -> None:
        self.consecutive_failures = 0
        if self.state is BreakerState.HALF_OPEN:
            self._move(now_ms, BreakerState.CLOSED)

    def record_failure(self, now_ms: float) -> None:
        self.consecutive_failures += 1
        if self.state is BreakerState.HALF_OPEN:
            self._move(now_ms, BreakerState.OPEN)
            self.opened_at_ms = now_ms
        elif (
            self.state is BreakerState.CLOSED
            and self.consecutive_failures >= self.config.failure_threshold
        ):
            self._move(now_ms, BreakerState.OPEN)
            self.opened_at_ms = now_ms


@dataclass
class BreakerBoard:
    """The fleet's breakers, one per node, created on first sight."""

    config: BreakerConfig = field(default_factory=BreakerConfig)
    breakers: dict[int, CircuitBreaker] = field(default_factory=dict)
    _cursors: dict[int, int] = field(default_factory=dict)

    def breaker(self, node: int) -> CircuitBreaker:
        breaker = self.breakers.get(node)
        if breaker is None:
            breaker = self.breakers[node] = CircuitBreaker(self.config)
        return breaker

    def partition(
        self, nodes: list[int], now_ms: float
    ) -> tuple[set[int], set[int]]:
        """Split ``nodes`` into ``(attempt, latched)`` for one wave.

        Latched nodes have an open breaker still inside its hold-off;
        the wave skips them without waiting out a contribution timeout.
        Half-open transitions fire here (probes land in ``attempt``).
        """
        attempt: set[int] = set()
        latched: set[int] = set()
        for node in nodes:
            (attempt if self.breaker(node).allow(now_ms) else latched).add(node)
        return attempt, latched

    def force_probe(self, nodes, now_ms: float) -> None:
        """Move recovered nodes' open breakers straight to half-open."""
        for node in sorted(nodes):
            if node in self.breakers:
                self.breakers[node].force_probe(now_ms)

    def pop_events(self) -> list[tuple[int, float, str, str]]:
        """Transitions since the last call, as ``(node, now_ms, from, to)``.

        Lets the server book state-change counters exactly once per
        transition without the breakers knowing about telemetry.
        """
        events = []
        for node in sorted(self.breakers):
            transitions = self.breakers[node].transitions
            seen = self._cursors.get(node, 0)
            if len(transitions) > seen:
                events.extend(
                    (node, when, src, dst)
                    for when, src, dst in transitions[seen:]
                )
                self._cursors[node] = len(transitions)
        return events

    def transition_log(self) -> list[tuple[int, float, str, str]]:
        """Every transition as ``(node, now_ms, from, to)``, node-ordered."""
        log = []
        for node in sorted(self.breakers):
            for when, src, dst in self.breakers[node].transitions:
                log.append((node, when, src, dst))
        return log


# -- brownouts -----------------------------------------------------------------

#: Brownout tiers, healthy → shed.
TIER_HEALTHY = 0  # full service
TIER_REDUCED = 1  # shrink the scanned window range
TIER_CACHE_ONLY = 2  # answer from the signature cache, no NVM reads
TIER_REJECT = 3  # shed new admissions

TIER_NAMES = {
    TIER_HEALTHY: "healthy",
    TIER_REDUCED: "reduced",
    TIER_CACHE_ONLY: "cache_only",
    TIER_REJECT: "reject",
}


#: Brownout thresholds: queue-depth fractions (of ``max_queue``) and
#: deadline-miss rates (over the last :data:`BROWNOUT_WINDOW`
#: completions) at which tiers 1..3 engage; the effective tier is the
#: max of the two signals.
BROWNOUT_QUEUE_TIERS = (0.5, 0.75, 0.95)
BROWNOUT_MISS_TIERS = (0.25, 0.5, 0.8)
#: completions the deadline-miss rate is computed over
BROWNOUT_WINDOW = 16
#: retry hint handed to clients shed at tier 3 (simulated ms)
BROWNOUT_RETRY_AFTER_MS = 100.0


@dataclass
class BrownoutController:
    """Maps (queue pressure, recent deadline misses) to a service tier."""

    _recent_misses: list[bool] = field(default_factory=list)
    #: tier transition log, ``(t_ms, old_tier, new_tier)`` — appended by
    #: the server at wave dispatch, consumed by health/export tooling
    transitions: list[tuple[float, int, int]] = field(default_factory=list)

    def record_completion(self, missed: bool) -> None:
        self._recent_misses.append(missed)
        if len(self._recent_misses) > BROWNOUT_WINDOW:
            del self._recent_misses[:-BROWNOUT_WINDOW]

    @property
    def miss_rate(self) -> float:
        if not self._recent_misses:
            return 0.0
        return sum(self._recent_misses) / len(self._recent_misses)

    @staticmethod
    def _tier_from(value: float, thresholds: tuple[float, float, float]) -> int:
        tier = 0
        for level, threshold in enumerate(thresholds, start=1):
            if value >= threshold:
                tier = level
        return tier

    def tier(self, queue_depth: int, max_queue: int) -> int:
        """The current service tier (0 = healthy .. 3 = reject)."""
        queue_frac = queue_depth / max_queue if max_queue else 0.0
        return max(
            self._tier_from(queue_frac, BROWNOUT_QUEUE_TIERS),
            self._tier_from(self.miss_rate, BROWNOUT_MISS_TIERS),
        )
