"""Tests for chaos hardening: retries, breakers, brownouts, SLA healing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.queries import QueryCostModel, QueryEngine, QuerySpec
from repro.errors import ConfigurationError, QueryRejected
from repro.faults.plan import FaultPlan
from repro.serving import reliability
from repro.serving import server as serving_server
from repro.serving.loadgen import LoadGenConfig, serve_session
from repro.serving.reliability import (
    TIER_CACHE_ONLY,
    TIER_HEALTHY,
    TIER_REDUCED,
    TIER_REJECT,
    BreakerBoard,
    BreakerConfig,
    BreakerState,
    BrownoutController,
    CircuitBreaker,
    RetryPolicy,
)
from repro.serving.server import QueryServer, ServerConfig
from repro.telemetry import Telemetry
from tests.serving_waves import record_waves

N_NODES = 3
ELECTRODES = 4
N_WINDOWS = 4


def _server(config=None, telemetry=None):
    """A small ingested fleet fronted by one server (seed 0)."""
    from repro.core.system import ScaloSystem
    from repro.units import WINDOW_SAMPLES

    kwargs = {"telemetry": telemetry} if telemetry is not None else {}
    system = ScaloSystem(
        n_nodes=N_NODES, electrodes_per_node=ELECTRODES, seed=0, **kwargs
    )
    rng = np.random.default_rng(0)
    template = None
    for _ in range(N_WINDOWS):
        windows = (
            rng.standard_normal(
                (N_NODES, ELECTRODES, WINDOW_SAMPLES)
            ).cumsum(axis=2)
            * 300
        ).round()
        system.ingest(windows)
        if template is None:
            template = windows[0, 0].astype(float)
    engine = QueryEngine(
        controllers=[node.storage for node in system.nodes],
        lsh=system.lsh,
        seizure_flags={node: {0} for node in range(N_NODES)},
        **kwargs,
    )
    server = QueryServer(
        engine,
        config=config if config is not None else ServerConfig(),
        cost_model=QueryCostModel(
            n_nodes=N_NODES, electrodes_per_node=ELECTRODES
        ),
        **kwargs,
    )
    return server, template


def _total(server, name):
    """One of the server's ``serving.*`` counters, over every label cell."""
    return sum(
        value for (metric, _), value in server.counts.items() if metric == name
    )


class TestRetryPolicy:
    def test_backoff_is_pure_function_of_inputs(self):
        policy = RetryPolicy(seed=7)
        assert policy.backoff_ms(42, 0) == policy.backoff_ms(42, 0)
        assert policy.backoff_ms(42, 1) == policy.backoff_ms(42, 1)
        assert RetryPolicy(seed=7).backoff_ms(42, 2) == policy.backoff_ms(
            42, 2
        )

    def test_backoff_bounded_by_base_and_cap(self):
        policy = RetryPolicy(base_ms=10.0, cap_ms=100.0, seed=0)
        for key in range(50):
            for attempt in range(5):
                backoff = policy.backoff_ms(key, attempt)
                assert 10.0 <= backoff <= 100.0

    def test_different_keys_decorrelate(self):
        policy = RetryPolicy(seed=0)
        values = {policy.backoff_ms(key, 0) for key in range(20)}
        assert len(values) > 1

    def test_allows_counts_total_attempts(self):
        policy = RetryPolicy(max_attempts=3)
        assert policy.allows(0)
        assert policy.allows(1)
        assert not policy.allows(2)

    def test_rejects_bad_config(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(base_ms=0.0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(base_ms=100.0, cap_ms=50.0)


class TestCircuitBreaker:
    def test_opens_after_consecutive_failures(self):
        breaker = CircuitBreaker(BreakerConfig(failure_threshold=3))
        breaker.record_failure(0.0)
        breaker.record_failure(1.0)
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure(2.0)
        assert breaker.state is BreakerState.OPEN
        assert breaker.transitions == [(2.0, "closed", "open")]

    def test_success_resets_the_streak(self):
        breaker = CircuitBreaker(BreakerConfig(failure_threshold=2))
        breaker.record_failure(0.0)
        breaker.record_success(1.0)
        breaker.record_failure(2.0)
        assert breaker.state is BreakerState.CLOSED

    def test_latches_until_open_ms_then_probes(self):
        breaker = CircuitBreaker(
            BreakerConfig(failure_threshold=1, open_ms=100.0)
        )
        breaker.record_failure(0.0)
        assert not breaker.allow(50.0)
        assert breaker.allow(100.0)  # open -> half_open fires here
        assert breaker.state is BreakerState.HALF_OPEN

    def test_probe_success_closes(self):
        breaker = CircuitBreaker(
            BreakerConfig(failure_threshold=1, open_ms=100.0)
        )
        breaker.record_failure(0.0)
        breaker.allow(100.0)
        breaker.record_success(110.0)
        assert breaker.state is BreakerState.CLOSED
        assert breaker.transitions[-1] == (110.0, "half_open", "closed")

    def test_probe_failure_reopens_and_relatches(self):
        breaker = CircuitBreaker(
            BreakerConfig(failure_threshold=1, open_ms=100.0)
        )
        breaker.record_failure(0.0)
        breaker.allow(100.0)
        breaker.record_failure(110.0)
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow(150.0)  # hold-off restarts at 110
        assert breaker.allow(210.0)

    def test_force_probe_overrides_holdoff(self):
        breaker = CircuitBreaker(
            BreakerConfig(failure_threshold=1, open_ms=1e9)
        )
        breaker.record_failure(0.0)
        breaker.force_probe(5.0)
        assert breaker.state is BreakerState.HALF_OPEN
        breaker.force_probe(6.0)  # idempotent outside OPEN
        assert breaker.state is BreakerState.HALF_OPEN

    def test_board_partitions_and_drains_events_once(self):
        board = BreakerBoard(BreakerConfig(failure_threshold=1, open_ms=50.0))
        board.breaker(1).record_failure(0.0)
        attempt, latched = board.partition([0, 1, 2], 10.0)
        assert attempt == {0, 2} and latched == {1}
        events = board.pop_events()
        assert events == [(1, 0.0, "closed", "open")]
        assert board.pop_events() == []  # cursor advanced
        attempt, latched = board.partition([0, 1, 2], 60.0)
        assert latched == set()  # half-open probe rejoins
        assert board.pop_events() == [(1, 60.0, "open", "half_open")]

    def test_rejects_bad_config(self):
        with pytest.raises(ConfigurationError):
            BreakerConfig(failure_threshold=0)
        with pytest.raises(ConfigurationError):
            BreakerConfig(open_ms=0.0)


class TestBrownoutController:
    def test_queue_pressure_grades_tiers(self):
        ctrl = BrownoutController()
        assert ctrl.tier(0, 16) == TIER_HEALTHY
        assert ctrl.tier(8, 16) == TIER_REDUCED
        assert ctrl.tier(12, 16) == TIER_CACHE_ONLY
        assert ctrl.tier(16, 16) == TIER_REJECT

    def test_miss_rate_grades_tiers_over_window(self, monkeypatch):
        monkeypatch.setattr(reliability, "BROWNOUT_WINDOW", 4)
        ctrl = BrownoutController()
        for missed in (True, True, False, False):
            ctrl.record_completion(missed)
        assert ctrl.miss_rate == pytest.approx(0.5)
        assert ctrl.tier(0, 16) == TIER_CACHE_ONLY
        # the window slides: four clean completions heal the tier
        for _ in range(4):
            ctrl.record_completion(False)
        assert ctrl.tier(0, 16) == TIER_HEALTHY

    def test_effective_tier_is_max_of_signals(self):
        ctrl = BrownoutController()
        for _ in range(16):
            ctrl.record_completion(True)
        assert ctrl.tier(0, 16) == TIER_REJECT


class TestServerBreakers:
    def test_failed_node_charges_timeout_until_breaker_latches(self):
        config = ServerConfig(
            breaker=BreakerConfig(failure_threshold=2, open_ms=1e6),
        )
        server, _ = _server(config)
        server.set_dead_nodes({1})
        spec = QuerySpec("q3", 16.0)
        solo = server.cost_model.cost(spec).latency_ms
        services = []
        for i in range(3):
            server.submit(f"c{i}", spec, (0, N_WINDOWS))
            (response,) = server.step()
            services.append(response.finish_ms - response.start_ms)
        # waves 1 and 2 wait out the dead node; wave 3 skips it free
        assert services[0] == pytest.approx(solo + 25.0)
        assert services[1] == pytest.approx(solo + 25.0)
        assert services[2] == pytest.approx(solo)
        assert _total(server, "serving.breaker.opened") == 1
        assert _total(server, "serving.timeouts") == 2

    def test_breaker_transitions_land_in_telemetry(self):
        tel = Telemetry()
        config = ServerConfig(
            breaker=BreakerConfig(failure_threshold=1, open_ms=1e6)
        )
        server, _ = _server(config, telemetry=tel)
        server.set_dead_nodes({2})
        server.submit("a", QuerySpec("q3", 16.0), (0, N_WINDOWS))
        server.step()
        assert tel.registry.counter("serving.breaker.opened", node=2) == 1.0

    def test_recovery_forces_probe_through_latched_breaker(self):
        config = ServerConfig(
            breaker=BreakerConfig(failure_threshold=1, open_ms=1e6)
        )
        server, _ = _server(config)
        server.set_dead_nodes({1})
        server.submit("a", QuerySpec("q3", 16.0), (0, N_WINDOWS))
        (degraded,) = server.step()
        assert degraded.coverage < 1.0
        server.set_dead_nodes(set())  # recovery: probe immediately
        server.submit("b", QuerySpec("q3", 16.0), (0, N_WINDOWS))
        (healed,) = server.step()
        assert healed.coverage == pytest.approx(1.0)
        assert _total(server, "serving.breaker.closed") == 1


class TestServerBrownout:
    @pytest.fixture(autouse=True)
    def _queue_tiers(self, monkeypatch):
        monkeypatch.setattr(
            reliability, "BROWNOUT_QUEUE_TIERS", (0.25, 0.5, 0.95)
        )

    def _config(self):
        return ServerConfig(max_queue=8, brownout=True, bucket_capacity=64.0)

    def test_tier_tagged_on_responses_and_log(self):
        server, _ = _server(self._config())
        # 4 distinct ranges -> 4 waves pending = queue fraction 0.5
        for i in range(4):
            server.submit("a", QuerySpec("q3", 16.0), (0, i + 1))
        (response, *_rest) = server.step()
        assert response.tier == TIER_CACHE_ONLY
        assert "tier=2" in server.response_log()

    def test_reduced_tier_shrinks_the_scanned_range(self):
        server, _ = _server(self._config())
        waves = record_waves(server)
        server.submit("a", QuerySpec("q3", 16.0), (0, N_WINDOWS))
        server.submit("a", QuerySpec("q3", 16.0), (0, 2))
        (response, *_rest) = server.step()
        assert response.tier == TIER_REDUCED
        result = waves[response.wave_id - 1]
        # only the most recent half of [0, 4) was scanned
        windows = {row.window_index for row in result.rows}
        assert windows and windows <= {2, 3}

    def test_cache_only_answers_without_samples(self):
        server, template = _server(self._config())
        waves = record_waves(server)
        for i in range(4):
            server.submit("a", QuerySpec("q3", 16.0), (0, i + 1))
        (response, *_rest) = server.step()
        assert response.tier == TIER_CACHE_ONLY
        assert response.finish_ms - response.start_ms == pytest.approx(10.0)
        result = waves[response.wave_id - 1]
        assert result.rows and all(row.samples.size == 0 for row in result.rows)

    def test_reject_tier_sheds_with_brownout_reason(self, monkeypatch):
        # the reject tier engages at 6/8 queued — before queue_full can
        monkeypatch.setattr(
            reliability, "BROWNOUT_QUEUE_TIERS", (0.25, 0.5, 0.75)
        )
        server, _ = _server(ServerConfig(
            max_queue=8,
            brownout=True,
            bucket_capacity=64.0,
        ))
        for i in range(6):
            server.submit("a", QuerySpec("q3", 16.0), (0, (i % 4) + 1),
                          arrival_ms=float(i))
        with pytest.raises(QueryRejected) as exc:
            server.submit("a", QuerySpec("q3", 16.0), (0, 1),
                          arrival_ms=6.0)
        assert exc.value.reason == "brownout"
        assert exc.value.retry_after_ms > 0
        assert server.counts[
            ("serving.shed", (("kind", "q3"), ("reason", "brownout")))
        ] == 1
        assert "reason=brownout" in server.response_log()

    def test_brownout_disabled_serves_tier_zero(self):
        server, _ = _server()
        server.submit("a", QuerySpec("q3", 16.0), (0, N_WINDOWS))
        (response,) = server.step()
        assert response.tier == TIER_HEALTHY
        assert server.counts == {
            ("serving.submitted", (("kind", "q3"),)): 1.0,
            ("serving.completed", (("kind", "q3"),)): 1.0,
            ("serving.waves", (("kind", "q3"),)): 1.0,
            ("serving.brownout.waves", (("tier", "healthy"),)): 1.0,
        }


class TestResultRetention:
    def test_log_retention_bounds_the_response_log(self, monkeypatch):
        monkeypatch.setattr(serving_server, "LOG_RETENTION", 2)
        config = ServerConfig(bucket_capacity=64.0)
        server, _ = _server(config)
        for i in range(4):
            server.submit("a", QuerySpec("q3", 16.0), (0, (i % 4) + 1),
                          arrival_ms=float(i))
        server.drain()
        assert len(server.response_log().splitlines()) == 2

    def test_rejects_bad_config(self):
        for deadline in (0.0, float("nan"), float("inf")):
            with pytest.raises(ConfigurationError):
                ServerConfig(default_deadline_ms=deadline)
        with pytest.raises(ConfigurationError):
            ServerConfig(default_min_coverage=1.5)


class TestCoverageSLA:
    def test_below_sla_parks_and_reexecutes_on_recovery(self):
        config = ServerConfig(retry=RetryPolicy(max_attempts=3, seed=0))
        server, _ = _server(config)
        server.set_dead_nodes({1})
        rid = server.submit(
            "a", QuerySpec("q3", 16.0), (0, N_WINDOWS), min_coverage=0.9
        )
        (first,) = server.step()
        assert not first.sla_met and first.attempt == 0
        server.set_dead_nodes(set())  # the recovery signal
        assert _total(server, "serving.retries") == 1
        assert "retry" in server.response_log()
        server.drain()
        final = [r for r in server.responses if r.request_id == rid]
        assert final[-1].attempt == 1
        assert final[-1].sla_met
        assert _total(server, "serving.sla_violation") == 1  # only the first attempt

    def test_no_retry_policy_means_no_parking(self):
        server, _ = _server()  # retry=None
        server.set_dead_nodes({1})
        server.submit(
            "a", QuerySpec("q3", 16.0), (0, N_WINDOWS), min_coverage=0.9
        )
        server.step()
        server.set_dead_nodes(set())
        assert _total(server, "serving.retries") == 0
        server.drain()
        assert len(server.responses) == 1

    def test_attempts_are_bounded_by_the_policy(self):
        config = ServerConfig(retry=RetryPolicy(max_attempts=2, seed=0))
        server, _ = _server(config)
        server.set_dead_nodes({1})
        server.submit(
            "a", QuerySpec("q3", 16.0), (0, N_WINDOWS), min_coverage=0.9
        )
        server.step()
        # fake recovery that does not actually help: node 2 dies instead
        server.set_dead_nodes({2})
        server.drain()
        assert _total(server, "serving.retries") == 1
        # the re-execution also violated, but max_attempts=2 stops there
        server.set_dead_nodes(set())
        assert _total(server, "serving.retries") == 1

    def test_sla_violation_counted_in_telemetry(self):
        tel = Telemetry()
        server, _ = _server(telemetry=tel)
        server.set_dead_nodes({1})
        server.submit(
            "a", QuerySpec("q3", 16.0), (0, N_WINDOWS), min_coverage=0.9
        )
        server.step()
        assert tel.registry.counter(
            "serving.sla_violation", kind="q3"
        ) == 1.0

    def test_submit_validates_sla(self):
        server, _ = _server()
        with pytest.raises(ConfigurationError):
            server.submit(
                "a", QuerySpec("q3", 16.0), (0, N_WINDOWS), min_coverage=2.0
            )


class TestClientRetries:
    def test_shed_offers_are_retried_and_recovered(self):
        load = LoadGenConfig(n_requests=64, offered_qps=400.0)
        config = ServerConfig(max_queue=4)
        _, plain = serve_session(seed=0, load=load, server_config=config)
        _, retried = serve_session(
            seed=0, load=load, server_config=config,
            client_retry=RetryPolicy(max_attempts=4, seed=1),
        )
        assert plain.shed > 0
        assert retried.client_retries > 0
        assert retried.availability > plain.availability
        # unique-arrival accounting still balances
        assert retried.completed + retried.shed == retried.n_offered

    def test_retries_preserve_determinism(self):
        load = LoadGenConfig(n_requests=48, offered_qps=400.0)
        config = ServerConfig(max_queue=4)
        retry = RetryPolicy(max_attempts=4, seed=1)
        _, a = serve_session(
            seed=0, load=load, server_config=config, client_retry=retry
        )
        _, b = serve_session(
            seed=0, load=load, server_config=config, client_retry=retry
        )
        assert a.response_log == b.response_log
        assert a.client_retries == b.client_retries


@st.composite
def _storm_plans(draw):
    n_nodes = draw(st.integers(min_value=3, max_value=5))
    return FaultPlan.generate(
        n_nodes,
        n_rounds=32,
        seed=draw(st.integers(min_value=0, max_value=2**16)),
        n_crashes=draw(st.integers(min_value=0, max_value=n_nodes - 1)),
        reboot_after=draw(st.one_of(st.none(), st.integers(2, 8))),
        n_outages=draw(st.integers(min_value=0, max_value=2)),
        outage_rounds=3,
        n_bit_rot=draw(st.integers(min_value=0, max_value=2)),
        rot_bits=draw(st.sampled_from([1, 8])),
    )


class TestChaosDeterminism:
    @settings(max_examples=8, deadline=None)
    @given(plan=_storm_plans(), seed=st.integers(min_value=0, max_value=99))
    def test_random_storms_replay_byte_identically(self, plan, seed):
        """Random FaultPlans: logs, metrics, and breaker transitions agree."""

        def run():
            telemetry = Telemetry()
            server, report = serve_session(
                n_nodes=plan.n_nodes,
                electrodes=4,
                n_windows=3,
                seed=seed,
                load=LoadGenConfig(
                    n_requests=12, offered_qps=60.0, seed=seed,
                    min_coverage=0.9,
                ),
                server_config=ServerConfig(
                    breaker=BreakerConfig(failure_threshold=2),
                    brownout=True,
                    retry=RetryPolicy(seed=seed),
                    default_min_coverage=0.9,
                ),
                telemetry=telemetry,
                fault_plan=plan,
                client_retry=RetryPolicy(seed=seed + 1),
            )
            transitions = server.breakers.transition_log()
            return report, transitions, telemetry.registry.snapshot()

        report_a, transitions_a, metrics_a = run()
        report_b, transitions_b, metrics_b = run()
        assert report_a.response_log == report_b.response_log
        assert transitions_a == transitions_b
        assert metrics_a == metrics_b
        assert report_a == report_b
