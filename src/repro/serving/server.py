"""The fleet-scale query server: admission → coalesce → EDF dispatch.

SCALO's query interface (§3.4, Fig. 10) assumes one caller; this module
multiplexes many concurrent, deadline-bearing clients onto the PR-4
batched/cached query path.  :class:`QueryServer` is a discrete-event
server in **simulated milliseconds**:

* :meth:`submit` stamps an arrival, runs admission control (bounded
  queue + per-client token bucket, see
  :mod:`repro.serving.admission`), then the brownout gate (tier 3 sheds
  with reason ``brownout``) and either enqueues the request or sheds it
  with :class:`~repro.errors.QueryRejected`;
* pending requests with the same *coalesce key* — identical
  :class:`~repro.apps.queries.QuerySpec`, window range, and template
  bytes — merge into one **wave** that runs
  :meth:`~repro.apps.queries.QueryEngine.run` once, so the signature
  cache and the NVM scan are hit once per wave instead of once per
  client;
* waves dispatch **earliest-deadline-first**; a wave's deadline is the
  earliest deadline among its members, ties break on the lowest request
  id, so dispatch order is total and deterministic;
* completion past a request's deadline is answered anyway but counted
  as a deadline miss (a late answer still beats a lost session);
* nodes believed dead (fed from the faults/health layer via
  :meth:`set_dead_nodes`) are routed around — responses carry the
  degraded/coverage tagging of the underlying
  :class:`~repro.apps.queries.DistributedQueryResult`.

Chaos hardening (see :mod:`repro.serving.reliability` and DESIGN.md
"Fault-aware serving") layers three mechanisms on that pipeline:

* **failed-contribution timeouts** — a node the wave attempts (or has
  not yet latched out) that cannot contribute charges
  ``FAILED_NODE_TIMEOUT_MS`` of extra service time, making fault cost
  explicit;
* **per-node circuit breakers** — ``failure_threshold`` consecutive
  failed contributions latch a node open; latched nodes are skipped
  without the timeout charge until a half-open probe wave readmits
  them, so a flapping node stops poisoning wave latency;
* **brownouts** — queue depth and the recent deadline-miss rate grade
  service into tiers: full → reduced window range → signature-cache
  only → reject; the tier is stamped on every response and log row;
* **coverage-SLA re-execution** — a request whose wave answered below
  its ``min_coverage`` is parked and deterministically re-executed
  (bounded :class:`~repro.serving.reliability.RetryPolicy` backoff)
  once :meth:`set_dead_nodes` observes a node recover.

Service time comes from the paper's Fig. 10 cost model
(:class:`~repro.apps.queries.QueryCostModel`): a wave pays one full
query latency (scan + filter + transmit + overhead) plus a small
per-extra-member merge charge, plus the timeout charges above.  The
server keeps its own ``now_ms``; telemetry is observational only, so
runs with ``NULL_TELEMETRY`` and runs with a live handle produce
byte-identical response logs.

The ``serving.*`` counters live only in :attr:`QueryServer.counts`, keyed
like the metrics registry, which a live handle reads in place
(:meth:`~repro.telemetry.registry.MetricsRegistry.collect`); gauges,
histograms, spans and instants are pushed to the handle.
"""

from __future__ import annotations

import zlib
from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

from repro.apps.queries import (
    QueryCostModel,
    QueryEngine,
    QuerySpec,
)
from repro.errors import ConfigurationError, QueryRejected
from repro.serving.admission import AdmissionController
from repro.serving.reliability import (
    TIER_CACHE_ONLY,
    TIER_HEALTHY,
    TIER_NAMES,
    TIER_REDUCED,
    TIER_REJECT,
    BROWNOUT_RETRY_AFTER_MS,
    BreakerBoard,
    BreakerConfig,
    BrownoutController,
    RetryPolicy,
)
from repro.telemetry import NULL_TELEMETRY, TelemetryLike
from repro.telemetry.registry import LabelKey, label_key
from repro.units import DEFAULT_DEADLINE_MS

#: response-assembly charge per coalesced member beyond the first (ms)
COALESCE_MERGE_MS = 2.0
#: extra service time per failed, un-latched node contribution: the wave
#: waits this long before declaring the node absent (ms)
FAILED_NODE_TIMEOUT_MS = 25.0
#: flat service time for a signature-cache-only (tier 2) wave (ms)
CACHE_ONLY_SERVICE_MS = 10.0
#: fraction of the window range a tier-1 (reduced) wave still scans
REDUCED_RANGE_FRACTION = 0.5
#: response/shed log lines retained (oldest dropped first)
LOG_RETENTION = 4096


@dataclass(frozen=True)
class ServerConfig:
    """Tunables for one :class:`QueryServer`."""

    #: bounded admission queue: pending requests beyond this are shed
    max_queue: int = 16
    #: merge compatible pending queries into one scan (off = serial)
    coalesce: bool = True
    #: per-client token bucket (burst capacity, steady-state rate)
    bucket_capacity: float = 32.0
    bucket_refill_per_s: float = 100.0
    #: deadline assigned when a request does not carry one (relative ms)
    default_deadline_ms: float = DEFAULT_DEADLINE_MS
    #: coverage SLA stamped on requests that do not carry one
    default_min_coverage: float = 0.0
    #: pending requests any one client may hold in the queue (None = no
    #: quota) — the fabric's tenant-isolation gate: a flooding tenant
    #: fills at most this share of the shared admission queue
    per_client_queue_quota: int | None = None
    #: per-node circuit breakers
    breaker: BreakerConfig = field(default_factory=BreakerConfig)
    #: graded-degradation tiers (off = always serve tier 0)
    brownout: bool = False
    #: server-side coverage-SLA re-execution policy (None = no retries)
    retry: RetryPolicy | None = None

    def __post_init__(self) -> None:
        if not 0 < self.default_deadline_ms < np.inf:
            raise ConfigurationError(
                "default deadline must be positive and finite"
            )
        if not 0 < self.bucket_capacity < np.inf:
            raise ConfigurationError(
                "bucket capacity must be positive and finite"
            )
        if not 0 < self.bucket_refill_per_s < np.inf:
            raise ConfigurationError(
                "bucket refill rate must be positive and finite"
            )
        if not 0 <= self.default_min_coverage <= 1:
            raise ConfigurationError("coverage SLA must be in [0, 1]")
        if (
            self.per_client_queue_quota is not None
            and self.per_client_queue_quota < 1
        ):
            raise ConfigurationError("per-client queue quota must be positive")


@dataclass
class QueryRequest:
    """One admitted request waiting in (or dispatched from) the queue."""

    request_id: int
    client: str
    spec: QuerySpec
    window_range: tuple[int, int]
    template: np.ndarray | None
    arrival_ms: float
    deadline_ms: float  # absolute simulated time
    #: minimum fleet coverage this request's answer must reach
    min_coverage: float = 0.0
    #: execution attempt (0 = first; >0 = server-side SLA re-execution)
    attempt: int = 0
    #: the relative deadline re-executions are restamped with
    relative_deadline_ms: float = DEFAULT_DEADLINE_MS

    def coalesce_key(self) -> tuple:
        """Requests with equal keys can share one batched scan."""
        tpl = self.template.tobytes() if self.template is not None else None
        return (self.spec, self.window_range, tpl)


@dataclass(frozen=True)
class QueryResponse:
    """The completion record for one request (the response-log row)."""

    request_id: int
    client: str
    kind: str
    arrival_ms: float
    start_ms: float
    finish_ms: float
    deadline_ms: float
    wave_id: int
    wave_size: int
    n_rows: int
    rows_crc: int
    coverage: float
    degraded: bool
    #: brownout tier the wave served at (0 = full service)
    tier: int = 0
    #: execution attempt (>0 = coverage-SLA re-execution)
    attempt: int = 0
    #: the coverage SLA this request carried
    min_coverage: float = 0.0

    @property
    def latency_ms(self) -> float:
        return self.finish_ms - self.arrival_ms

    @property
    def wait_ms(self) -> float:
        return self.start_ms - self.arrival_ms

    @property
    def deadline_missed(self) -> bool:
        return self.finish_ms > self.deadline_ms

    @property
    def sla_met(self) -> bool:
        return self.coverage >= self.min_coverage

    def log_line(self) -> str:
        return (
            f"id={self.request_id:06d} client={self.client} kind={self.kind} "
            f"arrive={self.arrival_ms:012.3f} start={self.start_ms:012.3f} "
            f"finish={self.finish_ms:012.3f} wave={self.wave_id:05d}"
            f"x{self.wave_size:02d} rows={self.n_rows:04d} "
            f"crc={self.rows_crc:08x} coverage={self.coverage:.3f} "
            f"miss={int(self.deadline_missed)} tier={self.tier} "
            f"try={self.attempt} sla={int(self.sla_met)}"
        )


@dataclass
class QueryServer:
    """Multiplexes concurrent clients onto one :class:`QueryEngine`."""

    engine: QueryEngine
    config: ServerConfig = field(default_factory=ServerConfig)
    #: Fig. 10 latency model used as the service-time clock; defaults to
    #: one sized to the engine's fleet
    cost_model: QueryCostModel | None = None
    telemetry: TelemetryLike = field(default=NULL_TELEMETRY, repr=False)
    #: optional :class:`~repro.telemetry.health.recorder.FlightRecorder` fed
    #: breaker/brownout/shed transitions (attached by a HealthEngine;
    #: append-only, so it cannot perturb the response log)
    recorder: object | None = field(init=False, default=None, repr=False)

    def __post_init__(self) -> None:
        if self.cost_model is None:
            self.cost_model = QueryCostModel(
                n_nodes=max(1, len(self.engine.controllers))
            )
        self.now_ms = 0.0
        self.max_queue_depth = 0
        self.responses: list[QueryResponse] = []
        #: every ``serving.*`` counter cell, whatever the handle
        self.counts: dict[tuple[str, LabelKey], float] = {}
        self.telemetry.collect(self.counts)
        self._admission = AdmissionController(
            max_queue=self.config.max_queue,
            bucket_capacity=self.config.bucket_capacity,
            bucket_refill_per_s=self.config.bucket_refill_per_s,
            max_pending_per_client=self.config.per_client_queue_quota,
        )
        self.breakers = BreakerBoard(self.config.breaker)
        self.brownout = BrownoutController() if self.config.brownout else None
        self._pending: list[QueryRequest] = []
        self._parked: list[QueryRequest] = []
        self._log: deque[str] = deque(maxlen=LOG_RETENTION)
        self._dead: set[int] = set()
        self._next_id = 0
        self._wave_id = 0
        self._last_tier = TIER_HEALTHY
        self._has_quorum = True
        #: the quorum/epoch authority steering this server, when the
        #: partition wiring attached one (chaos gates audit it)
        self.failover = None

    def _count(self, name: str, value: float = 1.0, **labels: object) -> None:
        """Add ``value`` to one cell of :attr:`counts`."""
        key = (name, label_key(labels))
        self.counts[key] = self.counts.get(key, 0.0) + value

    # -- health ------------------------------------------------------------------

    def set_dead_nodes(self, nodes) -> None:
        """Pin the set of nodes every subsequent wave routes around.

        A shrink of the dead set (the health layer or the failover
        manager reports a node back) is the recovery signal that
        reschedules parked coverage-SLA re-executions.
        """
        new_dead = set(nodes)
        recovered = self._dead - new_dead
        self._dead = new_dead
        self.telemetry.set_gauge("serving.dead_nodes", len(self._dead))
        if recovered:
            # Recovery evidence outranks the hold-off timer: the next
            # wave probes the node instead of waiting out an open
            # breaker that latched while it was down.
            self.breakers.force_probe(recovered, self.now_ms)
            self._drain_breaker_events("recovery")
            self._reschedule_parked()

    def set_quorum(self, has_quorum: bool) -> None:
        """Pin whether the fleet currently holds a coordinating quorum.

        The partition wiring feeds this from the failover manager: a
        minority side (or a fleet mid-election) must not pretend to
        full service, so while quorum is lost every wave is forced to
        signature-cache-only — read-only answers from local state, no
        fleet-wide scan authority.  Regaining quorum is a recovery
        signal like a dead-set shrink: parked below-SLA requests are
        rescheduled so minority-parked queries re-execute after heal.
        """
        has_quorum = bool(has_quorum)
        if has_quorum == self._has_quorum:
            return
        self._has_quorum = has_quorum
        state = "regained" if has_quorum else "lost"
        self._log.append(f"quorum t={self.now_ms:012.3f} state={state}")
        self._count(f"serving.quorum.{state}")
        self.telemetry.set_gauge("serving.quorum", int(has_quorum))
        self.telemetry.instant("quorum-transition", state=state)
        if self.recorder is not None:
            self.recorder.record("quorum", self.now_ms, state=state)
        if has_quorum:
            self._reschedule_parked()

    def _reschedule_parked(self) -> None:
        """Re-enqueue parked below-SLA requests with jittered backoff."""
        retry = self.config.retry
        if retry is None or not self._parked:
            return
        parked = sorted(self._parked, key=lambda r: (r.request_id, r.attempt))
        self._parked = []
        for request in parked:
            delay = retry.backoff_ms(request.request_id, request.attempt)
            arrival = self.now_ms + delay
            self._pending.append(
                replace(
                    request,
                    arrival_ms=arrival,
                    deadline_ms=arrival + request.relative_deadline_ms,
                    attempt=request.attempt + 1,
                )
            )
            self._log.append(
                f"retry t={arrival:012.3f} id={request.request_id:06d} "
                f"try={request.attempt + 1} backoff={delay:.3f}"
            )
            self._count("serving.retries", kind=request.spec.kind)
        self.max_queue_depth = max(self.max_queue_depth, len(self._pending))

    # -- admission ---------------------------------------------------------------

    def _current_tier(self) -> int:
        if self.brownout is None:
            return TIER_HEALTHY
        return self.brownout.tier(len(self._pending), self.config.max_queue)

    def _shed(
        self, client: str, spec: QuerySpec, at: float, reason: str,
        retry_after: float,
    ) -> QueryRejected:
        self._count("serving.shed", kind=spec.kind, reason=reason)
        if self.recorder is not None:
            self.recorder.record(
                "shed", at, client=client, query=spec.kind, reason=reason
            )
        self._log.append(
            f"shed t={at:012.3f} client={client} kind={spec.kind} "
            f"reason={reason}"
        )
        return QueryRejected(client, reason, retry_after)

    def submit(
        self,
        client: str,
        spec: QuerySpec,
        window_range: tuple[int, int],
        *,
        template: np.ndarray | None = None,
        deadline_ms: float | None = None,
        arrival_ms: float | None = None,
        min_coverage: float | None = None,
    ) -> int:
        """Admit one request; returns its request id.

        ``arrival_ms`` defaults to the server's current simulated time
        (an open-loop driver passes explicit arrival stamps, which may
        lag ``now_ms`` while the server is busy).  ``deadline_ms`` is
        **relative to arrival**; omitted requests get the configured
        default.  ``min_coverage`` is the request's coverage SLA: an
        answer below it counts as a violation and (with a configured
        :class:`~repro.serving.reliability.RetryPolicy`) is re-executed
        after the fleet recovers.

        Raises:
            QueryRejected: queue full, brownout tier 3, or client over
                its token rate.
        """
        at = self.now_ms if arrival_ms is None else float(arrival_ms)
        client_pending = sum(1 for r in self._pending if r.client == client)
        shed = self._admission.admit(
            client, at, len(self._pending), client_pending
        )
        if shed is not None:
            raise self._shed(client, spec, at, *shed)
        if self.brownout is not None and self._current_tier() >= TIER_REJECT:
            raise self._shed(
                client, spec, at, "brownout",
                BROWNOUT_RETRY_AFTER_MS,
            )
        rel = self.config.default_deadline_ms if deadline_ms is None else deadline_ms
        if rel <= 0:
            raise ConfigurationError("deadline must be positive")
        sla = (
            self.config.default_min_coverage
            if min_coverage is None
            else float(min_coverage)
        )
        if not 0 <= sla <= 1:
            raise ConfigurationError("coverage SLA must be in [0, 1]")
        request = QueryRequest(
            request_id=self._next_id,
            client=client,
            spec=spec,
            window_range=window_range,
            template=template,
            arrival_ms=at,
            deadline_ms=at + rel,
            min_coverage=sla,
            relative_deadline_ms=rel,
        )
        self._next_id += 1
        self._pending.append(request)
        self.max_queue_depth = max(self.max_queue_depth, len(self._pending))
        self._count("serving.submitted", kind=spec.kind)
        self.telemetry.set_gauge("serving.queue_depth", len(self._pending))
        return request.request_id

    # -- dispatch ----------------------------------------------------------------

    def _waves(self) -> list[list[QueryRequest]]:
        """Partition pending requests into dispatchable waves."""
        if not self.config.coalesce:
            return [[request] for request in self._pending]
        groups: dict[tuple, list[QueryRequest]] = {}
        for request in self._pending:
            groups.setdefault(request.coalesce_key(), []).append(request)
        return list(groups.values())

    def _select_wave(self) -> list[QueryRequest] | None:
        """EDF: earliest member deadline wins; lowest request id breaks ties."""
        waves = self._waves()
        if not waves:
            return None
        return min(
            waves,
            key=lambda wave: (
                min(r.deadline_ms for r in wave),
                min(r.request_id for r in wave),
            ),
        )

    def _reduced_range(
        self, window_range: tuple[int, int]
    ) -> tuple[tuple[int, int], float]:
        """Tier-1 degradation: keep the most recent fraction of the range."""
        start, stop = window_range
        span = max(1, stop - start)
        keep = max(1, int(np.ceil(span * REDUCED_RANGE_FRACTION)))
        return (stop - keep, stop), keep / span

    def _drain_breaker_events(self, tier_label: str) -> None:
        """Book breaker transitions into the counts and telemetry."""
        tel = self.telemetry
        for node, when, src, dst in self.breakers.pop_events():
            if self.recorder is not None:
                self.recorder.record(
                    "breaker", when, node=node, src=src, dst=dst,
                    tier=tier_label,
                )
            metric = "opened" if dst == "open" else dst
            self._count(f"serving.breaker.{metric}", node=node)
            tel.instant(
                "breaker-transition", node=node, src=src, dst=dst,
                tier=tier_label,
            )

    def _note_tier_change(self, src: int, dst: int, at: float) -> None:
        """Book one brownout tier transition (observational only)."""
        if self.recorder is not None:
            self.recorder.record(
                "brownout", at, src=TIER_NAMES[src], dst=TIER_NAMES[dst],
            )
        tel = self.telemetry
        tel.instant(
            "brownout-transition", src=TIER_NAMES[src], dst=TIER_NAMES[dst],
        )
        tel.instant("brownout-tier", counter=True, tier=dst)
        tel.set_gauge("serving.brownout.tier", dst)

    def step(self) -> list[QueryResponse]:
        """Dispatch one wave; empty list when the queue is idle."""
        wave = self._select_wave()
        if wave is None:
            return []
        lead = wave[0]
        size = len(wave)
        start = max(self.now_ms, max(r.arrival_ms for r in wave))

        # Brownout tier for this wave (tier 3 only gates new admissions;
        # an already-admitted wave degrades to cache-only instead).  A
        # fleet without quorum is pinned to cache-only regardless of
        # queue pressure: no coordinator, no fleet-wide scan authority.
        tier = min(self._current_tier(), TIER_CACHE_ONLY)
        if not self._has_quorum:
            tier = TIER_CACHE_ONLY
        cache_only = tier == TIER_CACHE_ONLY
        if tier != self._last_tier:
            self._note_tier_change(self._last_tier, tier, start)
            self._last_tier = tier

        exec_range = lead.window_range
        service_spec = lead.spec
        if tier == TIER_REDUCED:
            exec_range, kept = self._reduced_range(lead.window_range)
            service_spec = replace(
                lead.spec, time_range_ms=lead.spec.time_range_ms * kept
            )

        # Circuit breakers: latched nodes are excluded without a timeout
        # charge; half-open probes rejoin the attempt set here.
        all_nodes = list(range(len(self.engine.controllers)))
        latched: set[int] = set()
        if not cache_only:
            _, latched = self.breakers.partition(all_nodes, start)
        exclude = self._dead | latched

        tel = self.telemetry
        self._wave_id += 1
        with tel.span(
            "serve-wave", kind=lead.spec.kind, wave=self._wave_id, size=size,
            tier=TIER_NAMES[tier],
        ):
            result = self.engine.run(
                lead.spec,
                exec_range,
                template=lead.template,
                dead_nodes=exclude,
                cache_only=cache_only,
            )
            failed = set(result.failed_nodes)
            if cache_only:
                timeout_nodes: list[int] = []
                service = CACHE_ONLY_SERVICE_MS
            else:
                timeout_nodes = sorted(failed - latched)
                service = self.cost_model.cost(service_spec).latency_ms
                service += FAILED_NODE_TIMEOUT_MS * len(timeout_nodes)
            service += COALESCE_MERGE_MS * (size - 1)
            if not cache_only:
                for node in timeout_nodes:
                    self.breakers.breaker(node).record_failure(start)
                for node in result.queried_nodes:
                    self.breakers.breaker(node).record_success(start)
                self._drain_breaker_events(TIER_NAMES[tier])
            tel.advance_ms(service)
        finish = start + service
        self.now_ms = finish
        done = {r.request_id for r in wave}
        self._pending = [r for r in self._pending if r.request_id not in done]

        rows_crc = zlib.crc32(
            b"".join(
                f"{n}:{e}:{w}:".encode() + s for n, e, w, s in result.row_keys()
            )
        )
        responses = []
        for request in wave:
            response = QueryResponse(
                request_id=request.request_id,
                client=request.client,
                kind=request.spec.kind,
                arrival_ms=request.arrival_ms,
                start_ms=start,
                finish_ms=finish,
                deadline_ms=request.deadline_ms,
                wave_id=self._wave_id,
                wave_size=size,
                n_rows=len(result.rows),
                rows_crc=rows_crc,
                coverage=result.coverage,
                degraded=result.degraded,
                tier=tier,
                attempt=request.attempt,
                min_coverage=request.min_coverage,
            )
            self.responses.append(response)
            self._log.append(response.log_line())
            responses.append(response)
            if self.brownout is not None:
                self.brownout.record_completion(response.deadline_missed)
            if not response.sla_met:
                self._count("serving.sla_violation", kind=request.spec.kind)
                if self.config.retry is not None and self.config.retry.allows(
                    request.attempt
                ):
                    self._parked.append(request)
            self._count("serving.completed", kind=request.spec.kind)
            if response.deadline_missed:
                self._count("serving.deadline_miss", kind=request.spec.kind)
            if response.degraded:
                self._count("serving.degraded_responses")
            if tel.enabled:
                tel.observe("serving.latency_ms", response.latency_ms)
                tel.observe("serving.wait_ms", response.wait_ms)
        self._count("serving.waves", kind=lead.spec.kind)
        self._count("serving.brownout.waves", tier=TIER_NAMES[tier])
        if timeout_nodes:
            self._count("serving.timeouts", len(timeout_nodes))
        if size > 1:
            self._count("serving.coalesced_batches")
            self._count("serving.coalesced_requests", size)
        if tel.enabled:
            tel.observe("serving.service_ms", service)
            tel.set_gauge("serving.queue_depth", len(self._pending))
        return responses

    def run_until(self, t_ms: float) -> None:
        """Dispatch waves that can start strictly before ``t_ms``.

        A wave whose start would land at or past ``t_ms`` stays queued:
        the arrival about to happen at ``t_ms`` may coalesce into it or
        carry an earlier deadline.  On return the server clock has
        advanced at least to ``t_ms`` (idle time passes silently).
        """
        while True:
            wave = self._select_wave()
            if wave is None:
                break
            start = max(self.now_ms, max(r.arrival_ms for r in wave))
            if start >= t_ms:
                break
            self.step()
        self.now_ms = max(self.now_ms, t_ms)

    def drain(self) -> None:
        """Dispatch every pending wave."""
        while self.step():
            pass

    def response_log(self) -> str:
        """The canonical response/shed/retry log, in event order.

        Byte-identical across runs for the same submissions and fault
        timeline — the serving determinism contract (telemetry on or
        off, it never changes a byte here).  Bounded to the newest
        ``LOG_RETENTION`` lines.
        """
        return "\n".join(self._log)
