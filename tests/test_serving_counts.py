"""The query server's ``serving.*`` counters against what clients observe.

A server keeps every ``serving.*`` counter in one table
(:attr:`~repro.serving.server.QueryServer.counts`), and a live handle
reads that table in place.  Random operation sequences (submits that
shed for every reason, waves, dead-set changes that drive breakers and
coverage retries, quorum loss and brownout tiers) run through two
servers on one live handle.  After every operation each server's table
must equal the counts this test derives from what it saw: the
responses, the raised :class:`~repro.errors.QueryRejected` reasons, the
retry lines of the response log, the recorder's breaker and quorum
entries and the breakers' recorded failures; the registry must read the
sum of both tables.  The same sequence on ``NULL_TELEMETRY`` must end
with the same tables and the same
:class:`~repro.serving.loadgen.ServeReport`.
"""

from collections import Counter
from functools import cache
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.queries import QueryCostModel, QueryEngine, QuerySpec
from repro.errors import QueryRejected
from repro.serving import reliability
from repro.serving.loadgen import summarise
from repro.serving.reliability import (
    TIER_NAMES,
    BreakerConfig,
    CircuitBreaker,
    RetryPolicy,
)
from repro.serving.server import QueryServer, ServerConfig
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.telemetry.registry import label_key

N_NODES = 3
ELECTRODES = 4
N_WINDOWS = 4
KINDS = ("q1", "q2", "q3")


@cache
def _engine_and_template():
    """One small ingested fleet's engine (seed 0), shared read-only."""
    from repro.core.system import ScaloSystem
    from repro.units import WINDOW_SAMPLES

    system = ScaloSystem(n_nodes=N_NODES, electrodes_per_node=ELECTRODES, seed=0)
    rng = np.random.default_rng(0)
    template = None
    for _ in range(N_WINDOWS):
        windows = (
            rng.standard_normal((N_NODES, ELECTRODES, WINDOW_SAMPLES)).cumsum(
                axis=2
            )
            * 300
        ).round()
        system.ingest(windows)
        if template is None:
            template = windows[0, 0].astype(float)
    engine = QueryEngine(
        controllers=[node.storage for node in system.nodes],
        lsh=system.lsh,
        seizure_flags={node: {0} for node in range(N_NODES)},
    )
    return engine, template


class _Recorder:
    """A flight recorder that keeps every entry."""

    def __init__(self) -> None:
        self.entries: list[tuple[str, dict]] = []

    def record(self, kind: str, t_ms: float, **detail: object) -> None:
        self.entries.append((kind, detail))


class _Observer:
    """One server plus everything its clients saw, folded into counts."""

    def __init__(self, config: ServerConfig, telemetry) -> None:
        engine, self.template = _engine_and_template()
        self.server = QueryServer(
            engine,
            config=config,
            cost_model=QueryCostModel(
                n_nodes=N_NODES, electrodes_per_node=ELECTRODES
            ),
            telemetry=telemetry,
        )
        self.recorder = self.server.recorder = _Recorder()
        self.kind_of: dict[int, str] = {}
        self.counted = Counter()
        self.n_offered = 0
        self.shed = 0
        self.seen_responses = 0
        self.failures = 0

    def add(self, name: str, value: float = 1.0, **labels: object) -> None:
        self.counted[(name, label_key(labels))] += value

    def submit(self, client, kind, stop, deadline, sla) -> None:
        self.n_offered += 1
        template = self.template if kind == "q2" else None
        try:
            rid = self.server.submit(
                client, QuerySpec(kind, 16.0), (0, stop), template=template,
                deadline_ms=deadline, min_coverage=sla,
            )
        except QueryRejected as exc:
            self.shed += 1
            self.add("serving.shed", kind=kind, reason=exc.reason)
            return
        self.kind_of[rid] = kind
        self.add("serving.submitted", kind=kind)

    def fold_responses(self) -> None:
        new = self.server.responses[self.seen_responses:]
        self.seen_responses = len(self.server.responses)
        waves = {}
        for response in new:
            waves.setdefault(response.wave_id, response)
            self.add("serving.completed", kind=response.kind)
            if response.deadline_missed:
                self.add("serving.deadline_miss", kind=response.kind)
            if response.degraded:
                self.add("serving.degraded_responses")
            if not response.sla_met:
                self.add("serving.sla_violation", kind=response.kind)
        for lead in waves.values():
            self.add("serving.waves", kind=lead.kind)
            self.add("serving.brownout.waves", tier=TIER_NAMES[lead.tier])
            if lead.wave_size > 1:
                self.add("serving.coalesced_batches")
                self.add("serving.coalesced_requests", lead.wave_size)

    def expected(self) -> dict:
        """Every count this observer derived, as ``counts`` cells."""
        table = Counter(self.counted)
        if self.failures:
            table[("serving.timeouts", ())] += self.failures
        for line in self.server.response_log().splitlines():
            if line.startswith("retry "):
                rid = int(line.split(" id=")[1].split()[0])
                table[("serving.retries", label_key({"kind": self.kind_of[rid]}))] += 1
        for kind, detail in self.recorder.entries:
            if kind == "breaker":
                metric = "opened" if detail["dst"] == "open" else detail["dst"]
                table[(f"serving.breaker.{metric}",
                       label_key({"node": detail["node"]}))] += 1
            elif kind == "quorum":
                table[(f"serving.quorum.{detail['state']}", ())] += 1
        return {key: float(value) for key, value in table.items()}

    def check(self) -> None:
        assert self.server.counts == self.expected()
        assert all(type(v) is float for v in self.server.counts.values())

    def report(self):
        return summarise(self.server, 0.0, self.n_offered, self.shed)


def _apply(observer: _Observer, op: tuple, failures: list) -> None:
    before = len(failures)
    name, *args = op
    server = observer.server
    if name == "submit":
        observer.submit(*args)
    elif name == "step":
        server.step()
    elif name == "run_until":
        server.run_until(server.now_ms + args[0])
    elif name == "drain":
        server.drain()
    elif name == "dead":
        server.set_dead_nodes(args[0])
    elif name == "quorum":
        server.set_quorum(args[0])
    observer.failures += len(failures) - before
    observer.fold_responses()


_SUBMIT = st.tuples(
    st.just("submit"), st.sampled_from(("a", "b")), st.sampled_from(KINDS),
    st.integers(1, N_WINDOWS), st.sampled_from((None, 5.0, 40.0)),
    st.sampled_from((None, 0.5, 1.0)),
)
_STEP = st.tuples(st.just("step"))
#: (which server, operation); submits and steps weighted up, so most
#: sequences dispatch waves
_OPS = st.lists(
    st.tuples(
        st.integers(0, 1),
        st.one_of(
            _SUBMIT, _SUBMIT, _STEP, _STEP,
            st.tuples(st.just("run_until"), st.sampled_from((1.0, 30.0, 500.0))),
            st.tuples(st.just("drain")),
            st.tuples(
                st.just("dead"),
                st.frozensets(st.integers(0, N_NODES - 1), max_size=2),
            ),
            st.tuples(st.just("quorum"), st.booleans()),
        ),
    ),
    min_size=10,
    max_size=40,
)

_CONFIGS = st.builds(
    ServerConfig,
    max_queue=st.integers(2, 6),
    coalesce=st.booleans(),
    bucket_capacity=st.sampled_from((2.0, 64.0)),
    bucket_refill_per_s=st.sampled_from((10.0, 100.0)),
    per_client_queue_quota=st.sampled_from((None, 2)),
    breaker=st.builds(
        BreakerConfig,
        failure_threshold=st.integers(1, 2),
        open_ms=st.sampled_from((20.0, 1e6)),
    ),
    brownout=st.booleans(),
    retry=st.sampled_from((None, RetryPolicy(max_attempts=3, seed=0))),
)


def _run(configs, ops, telemetry):
    """Drive ``ops`` through one observer per config, all on one
    ``telemetry`` handle; check every observer after each operation."""
    failures: list = []
    original = CircuitBreaker.record_failure

    def spy(self, now_ms):
        failures.append(now_ms)
        original(self, now_ms)

    with (
        mock.patch.object(
            reliability, "BROWNOUT_QUEUE_TIERS", (0.25, 0.5, 0.75)
        ),
        mock.patch.object(CircuitBreaker, "record_failure", spy),
    ):
        observers = [_Observer(config, telemetry) for config in configs]
        for which, op in ops:
            _apply(observers[which], op, failures)
            for observer in observers:
                observer.check()
            yield observers


class TestServingCounts:
    @settings(max_examples=50, deadline=None)
    @given(configs=st.lists(_CONFIGS, min_size=2, max_size=2), ops=_OPS)
    def test_counts_match_what_clients_observed(self, configs, ops):
        tel = Telemetry()
        for observers in _run(configs, ops, tel):
            both = Counter()
            for observer in observers:
                both.update(observer.expected())
            registry = {
                (name, labels): value
                for name, labels, value in tel.registry.counters()
                if name.startswith("serving.")
            }
            assert registry == dict(both)
        live = [(o.server.counts, o.report()) for o in observers]
        for observers in _run(configs, ops, NULL_TELEMETRY):
            pass
        null = [(o.server.counts, o.report()) for o in observers]
        assert null == live

    def test_every_counter_and_reason_is_reachable(self):
        """The operations above reach every ``serving.*`` counter the
        server books and every shed reason: a hand-picked sequence on two
        servers shows each can fire (brownout rejects before the queue
        can fill, so ``queue_full`` needs a server without brownouts)."""
        plain = ServerConfig(
            max_queue=4, bucket_capacity=3.0, bucket_refill_per_s=10.0,
            breaker=BreakerConfig(failure_threshold=1, open_ms=20.0),
            retry=RetryPolicy(max_attempts=3, seed=0),
        )
        graded = ServerConfig(
            max_queue=4, per_client_queue_quota=2, brownout=True
        )
        ops = [
            (0, ("dead", frozenset({1}))),
            (0, ("submit", "a", "q3", 4, None, 1.0)),
            (0, ("step",)),  # timeout: the breaker opens
            (0, ("run_until", 30.0)),
            (0, ("submit", "a", "q3", 4, None, None)),
            (0, ("step",)),  # half-open probe fails: it opens again
            (0, ("dead", frozenset())),  # recovery: probe, retry parked
            (0, ("drain",)),  # the probe succeeds: closed
            *[(0, ("submit", "c", "q1", 2, 5.0, None)) for _ in range(4)],
            (0, ("submit", "b", "q2", 3, None, None)),
            (0, ("submit", "b", "q2", 3, None, None)),  # queue full
            (0, ("drain",)),
            (1, ("submit", "a", "q3", 4, None, None)),
            (1, ("submit", "a", "q3", 3, None, None)),
            (1, ("submit", "a", "q3", 2, None, None)),  # over quota
            (1, ("submit", "b", "q3", 1, None, None)),
            (1, ("submit", "b", "q3", 2, None, None)),  # brownout reject
            (1, ("quorum", False)),
            (1, ("drain",)),
            (1, ("quorum", True)),
            (1, ("submit", "a", "q3", 4, None, None)),
            (1, ("step",)),  # one queued of four: the reduced tier
        ]
        for observers in _run([plain, graded], ops, Telemetry()):
            pass
        cells = [key for o in observers for key in o.server.counts]
        names = {name for name, _ in cells}
        reasons = {
            dict(labels)["reason"]
            for name, labels in cells
            if name == "serving.shed"
        }
        assert names == {
            "serving.submitted", "serving.shed", "serving.completed",
            "serving.deadline_miss", "serving.degraded_responses",
            "serving.sla_violation", "serving.waves",
            "serving.brownout.waves", "serving.coalesced_batches",
            "serving.coalesced_requests", "serving.timeouts",
            "serving.retries", "serving.breaker.opened",
            "serving.breaker.half_open", "serving.breaker.closed",
            "serving.quorum.lost", "serving.quorum.regained",
        }
        assert reasons == {"queue_full", "tenant_quota", "rate_limited",
                           "brownout"}
        tiers = {
            dict(labels)["tier"]
            for name, labels in cells
            if name == "serving.brownout.waves"
        }
        assert tiers == set(TIER_NAMES.values()) - {"reject"}
