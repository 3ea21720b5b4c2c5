"""Admission control for the query-serving front end.

Two independent gates run at submit time, both in simulated
milliseconds:

* a **bounded admission queue** — the server never holds more than
  ``max_queue`` pending requests; beyond that it sheds with an explicit
  :class:`~repro.errors.QueryRejected` instead of growing an unbounded
  backlog (the swapping-centric BCI-storage argument: a stalled pipeline
  is worse than an honest 429);
* a **per-client token bucket** — each client drains one token per
  request and refills at ``refill_per_s``, so one chatty client cannot
  starve the fleet's shared scan/radio budget.

A third, optional gate serves the multi-tenant fabric: a **per-client
queue quota** bounds how many *pending* requests any single client may
hold, so a tenant that floods faster than its bucket refills can fill
at most its share of the shared admission queue — the rest of the queue
stays available to well-behaved tenants (shed reason
``"tenant_quota"``).

All gates are pure bookkeeping over caller-supplied timestamps: no wall
clock, no randomness, so admission decisions are a deterministic
function of the arrival sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError


@dataclass
class TokenBucket:
    """A classic token bucket in simulated time.

    Starts full; :meth:`try_take` refills by elapsed time since the last
    call, then takes one token if available.  Timestamps must be
    monotonically non-decreasing (the server's arrival clock).
    """

    capacity: float = 32.0
    refill_per_s: float = 100.0

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ConfigurationError("bucket capacity must be positive")
        if self.refill_per_s <= 0:
            raise ConfigurationError("bucket refill rate must be positive")
        self.tokens = self.capacity
        self._last_ms = 0.0

    def _refill(self, now_ms: float) -> None:
        if now_ms > self._last_ms:
            self.tokens = min(
                self.capacity,
                self.tokens + (now_ms - self._last_ms) * self.refill_per_s / 1e3,
            )
            self._last_ms = now_ms

    def try_take(self, now_ms: float) -> bool:
        """Take one token at ``now_ms``; False when the bucket is empty."""
        self._refill(now_ms)
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False

    def retry_after_ms(self, now_ms: float) -> float:
        """Simulated ms until one token will be available again."""
        self._refill(now_ms)
        deficit = max(0.0, 1.0 - self.tokens)
        return deficit * 1e3 / self.refill_per_s


@dataclass
class AdmissionController:
    """The submit-time gate: queue bound first, then the client's bucket."""

    max_queue: int = 16
    bucket_capacity: float = 32.0
    bucket_refill_per_s: float = 100.0
    #: pending requests any one client may hold (None = no quota)
    max_pending_per_client: int | None = None
    _buckets: dict[str, TokenBucket] = field(
        init=False, default_factory=dict, repr=False
    )

    def __post_init__(self) -> None:
        if self.max_queue < 1:
            raise ConfigurationError("admission queue bound must be positive")
        if (
            self.max_pending_per_client is not None
            and self.max_pending_per_client < 1
        ):
            raise ConfigurationError("per-client queue quota must be positive")

    def bucket(self, client: str) -> TokenBucket:
        bucket = self._buckets.get(client)
        if bucket is None:
            bucket = self._buckets[client] = TokenBucket(
                self.bucket_capacity, self.bucket_refill_per_s
            )
        return bucket

    def admit(
        self,
        client: str,
        now_ms: float,
        queue_depth: int,
        client_pending: int = 0,
    ) -> tuple[str, float] | None:
        """Gate one request; returns ``None`` on admit.

        On shed, returns ``(reason, retry_after_ms)``.  The queue bound
        is checked before the per-client gates so a rejected-for-capacity
        request does not also burn one of the client's tokens, and the
        queue quota is checked before the bucket for the same reason: a
        tenant over its pending share keeps its tokens for when its own
        backlog drains.
        """
        if queue_depth >= self.max_queue:
            return "queue_full", 0.0
        if (
            self.max_pending_per_client is not None
            and client_pending >= self.max_pending_per_client
        ):
            return "tenant_quota", 0.0
        bucket = self.bucket(client)
        if not bucket.try_take(now_ms):
            return "rate_limited", bucket.retry_after_ms(now_ms)
        return None
