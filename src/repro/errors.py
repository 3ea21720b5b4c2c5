"""Exception hierarchy for the SCALO reproduction.

All library-raised exceptions derive from :class:`ScaloError` so callers can
catch everything from this package with one ``except`` clause.
"""

from __future__ import annotations


class ScaloError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(ScaloError):
    """A component was configured with invalid or inconsistent parameters."""


class PowerBudgetExceeded(ScaloError):
    """A pipeline or schedule requires more power than the implant cap."""

    def __init__(self, required_mw: float, budget_mw: float, detail: str = ""):
        self.required_mw = required_mw
        self.budget_mw = budget_mw
        message = (
            f"required {required_mw:.3f} mW exceeds budget {budget_mw:.3f} mW"
        )
        if detail:
            message = f"{message} ({detail})"
        super().__init__(message)


class DeadlineExceeded(ScaloError):
    """A pipeline or schedule cannot meet its response-time target."""

    def __init__(self, latency_ms: float, deadline_ms: float, detail: str = ""):
        self.latency_ms = latency_ms
        self.deadline_ms = deadline_ms
        message = (
            f"latency {latency_ms:.3f} ms exceeds deadline {deadline_ms:.3f} ms"
        )
        if detail:
            message = f"{message} ({detail})"
        super().__init__(message)


class UnknownPEError(ScaloError, KeyError):
    """A processing element name is not in the catalog."""


class FabricError(ScaloError):
    """Invalid fabric wiring (cycles, dangling ports, double connections)."""


class SchedulingError(ScaloError):
    """The ILP scheduler could not produce a feasible schedule."""


class StorageError(ScaloError):
    """Invalid NVM operation (bad address, write to unerased page, ...)."""


class UncorrectableError(StorageError):
    """A page failed ECC decode beyond the SECDED correction capability.

    Raised instead of silently returning rotted bytes; callers that can
    degrade (the resilient query path) treat the node's storage as
    unavailable, exactly like a dead node.
    """

    def __init__(self, page_index: int, detail: str = ""):
        self.page_index = page_index
        message = f"page {page_index} has uncorrectable bit errors"
        if detail:
            message = f"{message} ({detail})"
        super().__init__(message)


class RecoveryError(ScaloError):
    """Crash recovery could not restore a consistent node state."""


class NetworkError(ScaloError):
    """Invalid network operation (oversized packet, no TDMA slot, ...)."""


class RetryExhausted(NetworkError):
    """An ARQ transfer ran out of retries without an acknowledgement."""

    def __init__(self, seq: int, attempts: int, targets: list[int] | None = None):
        self.seq = seq
        self.attempts = attempts
        self.targets = targets or []
        message = f"packet seq={seq} unacknowledged after {attempts} attempts"
        if self.targets:
            message = f"{message} (targets {self.targets})"
        super().__init__(message)


class NodeFailure(ScaloError):
    """An operation addressed a node that is down (crashed or dark)."""

    def __init__(self, node_id: int, detail: str = ""):
        self.node_id = node_id
        message = f"node {node_id} is down"
        if detail:
            message = f"{message} ({detail})"
        super().__init__(message)


class QueryRejected(ScaloError):
    """The query server shed a request at admission (HTTP-429 analogue).

    ``reason`` is ``"queue_full"`` (the bounded admission queue is at
    capacity) or ``"rate_limited"`` (the client's token bucket is empty);
    ``retry_after_ms`` is the earliest simulated time offset at which a
    resubmission could be admitted (0 when unknowable, e.g. queue_full).
    """

    def __init__(self, client: str, reason: str, retry_after_ms: float = 0.0):
        self.client = client
        self.reason = reason
        self.retry_after_ms = retry_after_ms
        message = f"query from client {client!r} shed ({reason})"
        if retry_after_ms > 0:
            message = f"{message}, retry after {retry_after_ms:.1f} ms"
        super().__init__(message)


class QuerySyntaxError(ScaloError):
    """The Trill-like query text could not be parsed."""


class CompilationError(ScaloError):
    """A parsed query could not be lowered onto the PE fabric."""
