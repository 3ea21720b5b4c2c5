"""Fleet-scale query serving: admission control, coalescing, EDF dispatch.

The multiplexing layer between many concurrent clients and the batched
query path: a bounded admission queue with per-client token buckets
(overload sheds with :class:`~repro.errors.QueryRejected`), micro-batch
coalescing of compatible queries into one scan per wave, and
earliest-deadline-first dispatch with deadline-miss accounting — all in
simulated time, deterministic for a given seed and fault plan.

:mod:`repro.serving.reliability` layers chaos hardening on top:
seeded retries (client- and server-side), per-node circuit breakers,
and graded brownout tiers.  See DESIGN.md "Serving model" and
"Fault-aware serving".
"""

from __future__ import annotations

from repro.errors import QueryRejected
from repro.serving.admission import AdmissionController, TokenBucket
from repro.serving.loadgen import (
    Arrival,
    Fleet,
    LoadGenConfig,
    ServeReport,
    build_fleet,
    final_responses,
    generate_arrivals,
    percentile,
    run_open_loop,
    serve_session,
    summarise,
)
from repro.serving.reliability import (
    TIER_CACHE_ONLY,
    TIER_HEALTHY,
    TIER_NAMES,
    TIER_REDUCED,
    TIER_REJECT,
    BreakerBoard,
    BreakerConfig,
    BreakerState,
    BrownoutConfig,
    BrownoutController,
    CircuitBreaker,
    RetryPolicy,
)
from repro.serving.server import (
    QueryRequest,
    QueryResponse,
    QueryServer,
    ServerConfig,
    ServingStats,
)

__all__ = [
    "AdmissionController",
    "Arrival",
    "BreakerBoard",
    "BreakerConfig",
    "BreakerState",
    "BrownoutConfig",
    "BrownoutController",
    "CircuitBreaker",
    "Fleet",
    "LoadGenConfig",
    "QueryRejected",
    "QueryRequest",
    "QueryResponse",
    "QueryServer",
    "RetryPolicy",
    "ServeReport",
    "ServerConfig",
    "ServingStats",
    "TIER_CACHE_ONLY",
    "TIER_HEALTHY",
    "TIER_NAMES",
    "TIER_REDUCED",
    "TIER_REJECT",
    "TokenBucket",
    "build_fleet",
    "final_responses",
    "generate_arrivals",
    "percentile",
    "run_open_loop",
    "serve_session",
    "summarise",
]
