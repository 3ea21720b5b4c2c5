"""Tests for the serving layer: admission, coalescing, EDF, determinism."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.apps.queries import QueryCostModel, QueryEngine, QuerySpec
from repro.errors import ConfigurationError, QueryRejected
from repro.fabric.loadgen import FabricLoadConfig
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.serving.admission import AdmissionController, TokenBucket
from repro.serving.loadgen import (
    LoadGenConfig,
    generate_arrivals,
    serve_session,
)
from repro.serving.server import QueryServer, ServerConfig
from repro.telemetry import Telemetry
from tests.serving_waves import record_waves

N_NODES = 3
ELECTRODES = 4
N_WINDOWS = 4


def _fleet(telemetry=None):
    """A small ingested fleet + engine, deterministic from seed 0."""
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
    flags = {node: {0} for node in range(N_NODES)}
    engine = QueryEngine(
        controllers=[node.storage for node in system.nodes],
        lsh=system.lsh,
        seizure_flags=flags,
        **kwargs,
    )
    return system, engine, template


def _server(config=None, telemetry=None):
    _, engine, template = _fleet(telemetry)
    kwargs = {"telemetry": telemetry} if telemetry is not None else {}
    server = QueryServer(
        engine,
        config=config if config is not None else ServerConfig(),
        cost_model=QueryCostModel(
            n_nodes=N_NODES, electrodes_per_node=ELECTRODES
        ),
        **kwargs,
    )
    return server, template


class TestTokenBucket:
    def test_starts_full_and_drains(self):
        bucket = TokenBucket(capacity=3.0, refill_per_s=1.0)
        assert bucket.try_take(0.0)
        assert bucket.try_take(0.0)
        assert bucket.try_take(0.0)
        assert not bucket.try_take(0.0)

    def test_refills_with_time(self):
        bucket = TokenBucket(capacity=1.0, refill_per_s=10.0)
        assert bucket.try_take(0.0)
        assert not bucket.try_take(0.0)
        # 10 tokens/s = one token per 100 ms
        assert bucket.try_take(100.0)

    def test_retry_after_names_the_gap(self):
        bucket = TokenBucket(capacity=1.0, refill_per_s=10.0)
        bucket.try_take(0.0)
        assert bucket.retry_after_ms(0.0) == pytest.approx(100.0)

    def test_never_exceeds_capacity(self):
        bucket = TokenBucket(capacity=2.0, refill_per_s=1000.0)
        bucket.try_take(0.0)
        bucket._refill(1e6)
        assert bucket.tokens == pytest.approx(2.0)

    def test_rejects_bad_config(self):
        with pytest.raises(ConfigurationError):
            TokenBucket(capacity=0.0)
        with pytest.raises(ConfigurationError):
            TokenBucket(refill_per_s=-1.0)


class TestAdmissionController:
    def test_queue_bound_checked_before_bucket(self):
        """A capacity shed must not burn one of the client's tokens."""
        ctrl = AdmissionController(
            max_queue=1, bucket_capacity=1.0, bucket_refill_per_s=1.0
        )
        assert ctrl.admit("c", 0.0, queue_depth=0) is None
        reason, _ = ctrl.admit("c", 0.0, queue_depth=1)
        assert reason == "queue_full"
        # the queue_full shed did not take the (already spent) token path:
        # a fresh client still sheds on capacity without touching buckets
        assert "d" not in ctrl._buckets
        reason, _ = ctrl.admit("d", 0.0, queue_depth=5)
        assert reason == "queue_full"
        assert "d" not in ctrl._buckets

    def test_per_client_isolation(self):
        ctrl = AdmissionController(
            max_queue=100, bucket_capacity=1.0, bucket_refill_per_s=1.0
        )
        assert ctrl.admit("noisy", 0.0, 0) is None
        reason, retry = ctrl.admit("noisy", 0.0, 0)
        assert reason == "rate_limited" and retry > 0
        # the quiet client is unaffected
        assert ctrl.admit("quiet", 0.0, 0) is None


class TestShedding:
    def test_queue_full_sheds_with_retry_semantics(self):
        server, _ = _server(ServerConfig(max_queue=2))
        spec = QuerySpec("q3", 16.0)
        server.submit("a", spec, (0, N_WINDOWS))
        server.submit("b", spec, (0, N_WINDOWS))
        with pytest.raises(QueryRejected) as exc:
            server.submit("c", spec, (0, N_WINDOWS))
        assert exc.value.reason == "queue_full"
        assert "shed" in str(exc.value)

    def test_rate_limit_sheds_with_retry_after(self):
        server, _ = _server(
            ServerConfig(
                max_queue=100, bucket_capacity=1.0, bucket_refill_per_s=10.0
            )
        )
        spec = QuerySpec("q3", 16.0)
        server.submit("chatty", spec, (0, N_WINDOWS))
        with pytest.raises(QueryRejected) as exc:
            server.submit("chatty", spec, (0, N_WINDOWS))
        assert exc.value.reason == "rate_limited"
        assert exc.value.retry_after_ms == pytest.approx(100.0)

    def test_sheds_are_counted_and_logged(self):
        tel = Telemetry()
        server, _ = _server(ServerConfig(max_queue=1), telemetry=tel)
        spec = QuerySpec("q3", 16.0)
        server.submit("a", spec, (0, N_WINDOWS))
        with pytest.raises(QueryRejected):
            server.submit("b", spec, (0, N_WINDOWS))
        assert tel.registry.counter(
            "serving.shed", kind="q3", reason="queue_full"
        ) == 1.0
        assert "shed" in server.response_log()
        assert "reason=queue_full" in server.response_log()


class TestCoalescing:
    def test_identical_queries_share_one_wave(self):
        server, template = _server()
        spec = QuerySpec("q2", 16.0)
        ids = [
            server.submit(f"c{i}", spec, (0, N_WINDOWS), template=template)
            for i in range(4)
        ]
        responses = server.step()
        assert len(responses) == 4
        assert {r.wave_id for r in responses} == {responses[0].wave_id}
        assert all(r.wave_size == 4 for r in responses)
        # every member observes the same answer bytes
        assert len({r.rows_crc for r in responses}) == 1
        assert {r.request_id for r in responses} == set(ids)

    def test_coalesced_answer_matches_direct_run(self):
        server, template = _server()
        waves = record_waves(server)
        spec = QuerySpec("q2", 16.0)
        server.submit("a", spec, (0, N_WINDOWS), template=template)
        server.submit("b", spec, (0, N_WINDOWS), template=template)
        server.drain()
        (coalesced,) = waves
        assert {r.wave_id for r in server.responses} == {1}
        direct = server.engine.run(spec, (0, N_WINDOWS), template=template)
        assert coalesced.row_keys() == direct.row_keys()

    def test_incompatible_queries_do_not_merge(self):
        server, template = _server()
        server.submit("a", QuerySpec("q3", 16.0), (0, N_WINDOWS))
        server.submit("b", QuerySpec("q3", 16.0), (0, 2))  # other range
        server.submit("c", QuerySpec("q2", 16.0), (0, N_WINDOWS),
                      template=template)
        server.drain()
        assert all(r.wave_size == 1 for r in server.responses)
        assert len({r.wave_id for r in server.responses}) == 3

    def test_serial_mode_never_coalesces(self):
        server, _ = _server(ServerConfig(coalesce=False))
        spec = QuerySpec("q3", 16.0)
        for i in range(3):
            server.submit(f"c{i}", spec, (0, N_WINDOWS))
        server.drain()
        assert all(r.wave_size == 1 for r in server.responses)
        assert len({r.wave_id for r in server.responses}) == 3

    def test_coalescing_charges_merge_time(self):
        server, _ = _server(ServerConfig())
        spec = QuerySpec("q3", 16.0)
        server.submit("a", spec, (0, N_WINDOWS))
        server.submit("b", spec, (0, N_WINDOWS))
        server.submit("c", spec, (0, N_WINDOWS))
        (response, *_rest) = server.step()
        solo = server.cost_model.cost(spec).latency_ms
        assert response.finish_ms - response.start_ms == pytest.approx(
            solo + 2.0 * 2
        )


class TestEDFDispatch:
    def test_earliest_deadline_goes_first(self):
        server, template = _server()
        late = server.submit(
            "a", QuerySpec("q3", 16.0), (0, N_WINDOWS), deadline_ms=5000.0
        )
        urgent = server.submit(
            "b", QuerySpec("q2", 16.0), (0, N_WINDOWS),
            template=template, deadline_ms=50.0,
        )
        first = server.step()
        second = server.step()
        assert [r.request_id for r in first] == [urgent]
        assert [r.request_id for r in second] == [late]

    def test_ties_break_on_request_id(self):
        server, template = _server()
        spec_a = QuerySpec("q3", 16.0)
        spec_b = QuerySpec("q1", 16.0)
        a = server.submit("x", spec_a, (0, N_WINDOWS), deadline_ms=100.0)
        b = server.submit("y", spec_b, (0, N_WINDOWS), deadline_ms=100.0)
        first = server.step()
        assert [r.request_id for r in first] == [a]
        assert [r.request_id for r in server.step()] == [b]

    def test_deadline_misses_are_counted_not_dropped(self):
        tel = Telemetry()
        server, _ = _server(telemetry=tel)
        spec = QuerySpec("q3", 16.0)
        # a 1 ms deadline can't be met by a multi-ms scan
        server.submit("a", spec, (0, N_WINDOWS), deadline_ms=1.0)
        (response,) = server.step()
        assert response.deadline_missed
        assert response.n_rows > 0  # late but answered
        assert tel.registry.counter(
            "serving.deadline_miss", kind="q3"
        ) == 1.0


class TestDegradedAnswers:
    def test_dead_nodes_produce_degraded_coverage(self):
        server, _ = _server()
        waves = record_waves(server)
        server.set_dead_nodes({1})
        server.submit("a", QuerySpec("q3", 16.0), (0, N_WINDOWS))
        (response,) = server.step()
        assert response.degraded
        assert response.coverage == pytest.approx(2 / 3)
        result = waves[response.wave_id - 1]
        assert result.failed_nodes == [1]
        assert all(row.node != 1 for row in result.rows)


class TestDeterminism:
    def test_repeat_runs_are_byte_identical(self):
        _, report_a = serve_session(seed=3)
        _, report_b = serve_session(seed=3)
        assert report_a.response_log == report_b.response_log
        assert report_a.response_log  # non-empty

    def test_telemetry_is_observational_only(self):
        """NULL_TELEMETRY vs a live handle: same bytes out."""
        _, silent = serve_session(seed=1)
        _, live = serve_session(seed=1, telemetry=Telemetry())
        assert silent.response_log == live.response_log

    def test_fault_plan_runs_are_byte_identical(self):
        plan = FaultPlan(
            n_nodes=4,
            n_rounds=64,
            seed=0,
            events=[FaultEvent(2, 1, FaultKind.NODE_CRASH)],
        )
        _, a = serve_session(seed=2, fault_plan=plan)
        _, b = serve_session(seed=2, fault_plan=plan)
        assert a.response_log == b.response_log
        assert a.degraded_responses > 0

    def test_different_seeds_differ(self):
        _, a = serve_session(seed=0)
        _, b = serve_session(seed=7)
        assert a.response_log != b.response_log


class TestLoadGenerator:
    def test_arrivals_deterministic_per_seed(self):
        config = LoadGenConfig(n_requests=32, offered_qps=25.0, seed=5)
        assert generate_arrivals(config) == generate_arrivals(config)
        other = LoadGenConfig(n_requests=32, offered_qps=25.0, seed=6)
        assert generate_arrivals(config) != generate_arrivals(other)

    def test_arrivals_monotone_and_complete(self):
        config = LoadGenConfig(n_requests=50, offered_qps=100.0, seed=0)
        arrivals = generate_arrivals(config)
        assert len(arrivals) == 50
        times = [a.at_ms for a in arrivals]
        assert times == sorted(times)
        kinds = {a.spec.kind for a in arrivals}
        assert kinds <= {"q1", "q2", "q3"}
        assert all(
            (a.template_index is not None) == (a.spec.kind == "q2")
            for a in arrivals
        )

    def test_rejects_bad_config(self):
        with pytest.raises(ConfigurationError):
            LoadGenConfig(n_requests=0)
        for qps in (0.0, float("nan"), float("inf")):
            with pytest.raises(ConfigurationError):
                LoadGenConfig(offered_qps=qps)
        for bad in (
            dict(deadline_ms=0.0),
            dict(deadline_ms=-5.0),
            dict(deadline_ms=float("nan")),
            dict(deadline_ms=float("inf")),
            dict(offered_qps=float("nan")),
        ):
            with pytest.raises(ConfigurationError):
                LoadGenConfig(**bad)
        # the fabric's per-tenant config delegates to the same checks
        with pytest.raises(ConfigurationError):
            FabricLoadConfig(offered_qps=float("nan"))
        for multiplier in (0.0, float("nan"), float("inf")):
            with pytest.raises(ConfigurationError):
                FabricLoadConfig(rate_multipliers={"t00": multiplier})

    def test_rejects_bad_query_fields_at_construction(self):
        nan, inf = float("nan"), float("inf")
        for time_range_ms in (nan, inf, -inf):
            with pytest.raises(ConfigurationError):
                QuerySpec("q1", time_range_ms)

    def test_rejects_bad_server_config(self):
        nan, inf = float("nan"), float("inf")
        for bad in (
            dict(bucket_capacity=0.0),
            dict(bucket_capacity=-1.0),
            dict(bucket_capacity=nan),
            dict(bucket_capacity=inf),
            dict(bucket_refill_per_s=0.0),
            dict(bucket_refill_per_s=nan),
            dict(bucket_refill_per_s=inf),
        ):
            with pytest.raises(ConfigurationError):
                ServerConfig(**bad)

    def test_low_load_sheds_nothing(self):
        _, report = serve_session(
            seed=0, load=LoadGenConfig(n_requests=24, offered_qps=4.0)
        )
        assert report.shed == 0
        assert report.completed == 24
        assert report.deadline_misses == 0

    def test_overload_sheds_explicitly(self):
        config = ServerConfig(max_queue=4)
        _, report = serve_session(
            seed=0,
            load=LoadGenConfig(n_requests=64, offered_qps=400.0),
            server_config=config,
        )
        assert report.shed > 0
        assert report.completed + report.shed == report.n_offered
        assert report.max_queue_depth <= 4

    def test_coalescing_beats_serial_under_load(self):
        load = LoadGenConfig(n_requests=64, offered_qps=40.0)
        _, coalesced = serve_session(seed=0, load=load)
        _, serial = serve_session(
            seed=0, load=load, server_config=ServerConfig(coalesce=False)
        )
        assert coalesced.waves < serial.waves
        assert coalesced.mean_latency_ms < serial.mean_latency_ms


class TestServeCLI:
    def test_serve_subcommand_runs_clean(self, tmp_path):
        csv = tmp_path / "metrics.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "serve",
             "--qps", "10", "--requests", "12", "--csv", str(csv)],
            capture_output=True, text=True, timeout=300,
            env=_repro_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert "open-loop serving" in proc.stdout
        assert csv.exists()

    def test_chaos_subcommand_runs_clean(self, tmp_path):
        csv = tmp_path / "chaos.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "chaos", "--csv", str(csv)],
            capture_output=True, text=True, timeout=600,
            env=_repro_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert "chaos sweep" in proc.stdout
        assert "all chaos gates pass" in proc.stdout
        text = csv.read_text()
        assert "serving.retries" in text
        assert "serving.breaker.opened" in text
        assert "serving.brownout.waves" in text


def _repro_env():
    import os

    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env
