"""Fleet health engine: sketches, SLO burn rates, anomalies, incidents.

Covers the health package end to end: the mergeable quantile sketch
(including hypothesis merge-property tests), the SLO burn-rate engine
with its request-count guards, the EWMA anomaly detector, the flight
recorder, and the full :class:`HealthEngine` riding along a chaos
storm — where the determinism contract (attaching health changes no
output byte) and the storm calibration (mild quiet, moderate alerting)
are asserted directly.
"""

import csv
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.eval.chaos import (
    MILD,
    MODERATE,
    ChaosConfig,
    run_storm,
)
from repro.eval.reporting import telemetry_summary
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.telemetry.exporters import (
    chrome_trace_events,
    telemetry_json,
    write_metrics_csv,
)
from repro.telemetry.health import anomaly, recorder
from repro.telemetry.health.anomaly import AnomalyDetector
from repro.telemetry.health.engine import HealthEngine
from repro.telemetry.health.recorder import FlightRecorder
from repro.telemetry.health.sketch import QuantileSketch
from repro.telemetry.health.slo import BurnRateWindow, SLO, SLOEngine
from repro.telemetry.registry import MetricsRegistry
from repro.units import ROUND_MS
from tests.health_oracle import TwoPassHealthEngine


def _true_quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile over the raw data (the sketch's target)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


class TestQuantileSketch:
    def test_empty_sketch(self):
        sk = QuantileSketch()
        assert sk.count == 0
        assert sk.quantile(0.5) == 0.0

    def test_single_value(self):
        sk = QuantileSketch()
        sk.observe(42.0)
        for q in (0.01, 0.5, 0.99, 1.0):
            assert sk.quantile(q) == pytest.approx(42.0, rel=0.02)

    def test_relative_error_bound(self):
        rng = random.Random(7)
        values = [rng.uniform(0.1, 5000.0) for _ in range(2000)]
        sk = QuantileSketch(relative_accuracy=0.01)
        for v in values:
            sk.observe(v)
        for q in (0.1, 0.5, 0.9, 0.99):
            true = _true_quantile(values, q)
            assert sk.quantile(q) == pytest.approx(true, rel=0.025)

    def test_handles_zero_and_negative(self):
        sk = QuantileSketch()
        for v in (-10.0, -1.0, 0.0, 0.0, 1.0, 10.0):
            sk.observe(v)
        assert sk.count == 6
        assert sk.quantile(0.01) == pytest.approx(-10.0, rel=0.05)
        assert sk.quantile(1.0) == pytest.approx(10.0, rel=0.05)
        assert sk.min_value == -10.0
        assert sk.max_value == 10.0

    def test_invalid_quantile_rejected(self):
        sk = QuantileSketch()
        sk.observe(1.0)
        with pytest.raises(ConfigurationError):
            sk.quantile(-0.1)
        with pytest.raises(ConfigurationError):
            sk.quantile(1.5)

    def test_invalid_accuracy_rejected(self):
        with pytest.raises(ConfigurationError):
            QuantileSketch(relative_accuracy=0.0)
        with pytest.raises(ConfigurationError):
            QuantileSketch(relative_accuracy=1.0)

    def test_merge_requires_same_accuracy(self):
        a = QuantileSketch(relative_accuracy=0.01)
        b = QuantileSketch(relative_accuracy=0.02)
        with pytest.raises(ConfigurationError):
            a.merge(b)

    def test_copy_is_independent(self):
        a = QuantileSketch()
        a.observe(1.0)
        b = a.copy()
        b.observe(100.0)
        assert a.count == 1
        assert b.count == 2

    def test_delta_since(self):
        a = QuantileSketch()
        for v in (1.0, 2.0):
            a.observe(v)
        snap = a.copy()
        for v in (100.0, 200.0, 300.0):
            a.observe(v)
        delta = a.delta_since(snap)
        assert delta.count == 3
        assert delta.quantile(0.5) == pytest.approx(200.0, rel=0.02)

    def test_as_dict_round_numbers(self):
        sk = QuantileSketch()
        for v in (1.0, 2.0, 3.0):
            sk.observe(v)
        d = sk.as_dict()
        assert d["count"] == 3
        assert d["quantiles"]["p50"] == pytest.approx(2.0, rel=0.02)
        assert d["min"] == 1.0 and d["max"] == 3.0

    @settings(max_examples=50, deadline=None)
    @given(
        chunks=st.lists(
            st.lists(
                st.floats(
                    min_value=0.001, max_value=1e6,
                    allow_nan=False, allow_infinity=False,
                ),
                min_size=1, max_size=40,
            ),
            min_size=2, max_size=6,
        ),
        q=st.sampled_from([0.1, 0.5, 0.9, 0.99]),
    )
    def test_merged_matches_pooled(self, chunks, q):
        """Merging per-chunk sketches ≈ sketching the pooled data."""
        merged = QuantileSketch()
        pooled = QuantileSketch()
        flat = []
        for chunk in chunks:
            part = QuantileSketch()
            for v in chunk:
                part.observe(v)
                pooled.observe(v)
                flat.append(v)
            merged.merge(part)
        assert merged.count == pooled.count == len(flat)
        # identical bucket state, hence identical quantiles
        assert merged.quantile(q) == pooled.quantile(q)
        # and both within the relative-error bound of the raw data
        true = _true_quantile(flat, q)
        assert merged.quantile(q) == pytest.approx(true, rel=0.025)

    @settings(max_examples=50, deadline=None)
    @given(
        chunks=st.lists(
            st.lists(
                st.floats(
                    min_value=0.001, max_value=1e6,
                    allow_nan=False, allow_infinity=False,
                ),
                min_size=1, max_size=30,
            ),
            min_size=2, max_size=5,
        ),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_merge_is_order_independent(self, chunks, seed):
        """Any merge order produces the same sketch (commutative group)."""
        parts = []
        for chunk in chunks:
            sk = QuantileSketch()
            for v in chunk:
                sk.observe(v)
            parts.append(sk)

        forward = QuantileSketch()
        for part in parts:
            forward.merge(part)

        shuffled = list(parts)
        random.Random(seed).shuffle(shuffled)
        backward = QuantileSketch()
        for part in shuffled:
            backward.merge(part)

        # bucket state (hence every quantile) is exactly order-free;
        # the float `sum` accumulator is order-sensitive in the last ulp
        a, b = forward.as_dict(), backward.as_dict()
        assert a.pop("sum") == pytest.approx(b.pop("sum"), rel=1e-12)
        assert a == b


class TestBurnRateWindow:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BurnRateWindow(rounds=0, threshold=1.0)
        with pytest.raises(ConfigurationError):
            BurnRateWindow(rounds=1, threshold=0.0)
        with pytest.raises(ConfigurationError):
            BurnRateWindow(rounds=1, threshold=1.0, severity="panic")
        with pytest.raises(ConfigurationError):
            BurnRateWindow(rounds=1, threshold=1.0, min_events=-1)


class TestSLO:
    def _ratio_slo(self, **overrides):
        base = dict(
            name="x",
            objective=0.9,
            bad_counters=("bad",),
            total_counters=("total",),
            window_rounds=(2, 4),
            burn_rate_thresholds=(5.0, 2.0),
        )
        base.update(overrides)
        return SLO(**base)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            self._ratio_slo(objective=1.0)
        with pytest.raises(ConfigurationError):
            self._ratio_slo(bad_counters=())  # neither counters nor latency
        with pytest.raises(ConfigurationError):
            self._ratio_slo(latency_metric="m")  # both
        with pytest.raises(ConfigurationError):
            self._ratio_slo(window_rounds=(4, 2))  # fast > slow
        with pytest.raises(ConfigurationError):
            self._ratio_slo(burn_rate_thresholds=(0.0, 1.0))
        with pytest.raises(ConfigurationError):
            SLO(
                name="lat", objective=0.9, latency_metric="m",
                latency_threshold_ms=0.0,
            )

    def test_duplicate_names_rejected(self):
        slo = self._ratio_slo()
        with pytest.raises(ConfigurationError):
            SLOEngine((slo, slo))

    def test_burn_rate_math(self):
        engine = SLOEngine((self._ratio_slo(),))
        # error budget = 0.1; 5 bad of 10 => error rate 0.5 => burn 5.0
        alerts = engine.observe("x", 0, 50.0, 5, 10)
        # burn 5.0 crosses both the fast (5.0) and slow (2.0) thresholds
        assert [a.severity for a in alerts] == ["fast", "slow"]
        assert alerts[0].burn_rate == pytest.approx(5.0)

    def test_alert_latches_until_rearm(self):
        engine = SLOEngine((self._ratio_slo(),))
        assert engine.observe("x", 0, 50.0, 5, 10)  # fires
        assert not engine.observe("x", 1, 100.0, 5, 10)  # latched
        assert not engine.observe("x", 2, 150.0, 0, 10)  # drops, re-arms
        assert not engine.observe("x", 3, 200.0, 0, 10)  # quiet
        assert engine.observe("x", 4, 250.0, 10, 10)  # second excursion

    def test_min_events_guard_suppresses_small_samples(self):
        guarded = self._ratio_slo(window_min_events=(8, 16))
        engine = SLOEngine((guarded,))
        # 1 bad of 1: error rate 1.0, burn 10 — but only 1 event in window
        assert not engine.observe("x", 0, 50.0, 1, 1)
        # still short of 8 events across the fast window
        assert not engine.observe("x", 1, 100.0, 1, 1)
        # now flood the window past the guard: alert fires
        assert engine.observe("x", 2, 150.0, 12, 12)

    def test_bad_beyond_total_rejected(self):
        engine = SLOEngine((self._ratio_slo(),))
        with pytest.raises(ConfigurationError):
            engine.observe("x", 0, 50.0, 3, 2)

    def test_status_attainment(self):
        engine = SLOEngine((self._ratio_slo(),))
        engine.observe("x", 0, 50.0, 1, 10)
        engine.observe("x", 1, 100.0, 0, 10)
        (status,) = engine.statuses()
        assert status.total_events == 20
        assert status.bad_events == 1
        assert status.attainment == pytest.approx(0.95)
        assert status.met  # 0.95 >= 0.9

    def test_alerts_sorted_by_round(self):
        slos = (self._ratio_slo(name="a"), self._ratio_slo(name="b"))
        engine = SLOEngine(slos)
        engine.observe("b", 0, 50.0, 9, 10)
        engine.observe("a", 1, 100.0, 9, 10)
        # burn 9.0 trips both windows of each SLO
        assert [(a.round_index, a.slo, a.severity) for a in engine.alerts()] == [
            (0, "b", "fast"), (0, "b", "slow"),
            (1, "a", "fast"), (1, "a", "slow"),
        ]


class TestAnomalyDetector:
    def test_quiet_during_warmup(self):
        det = AnomalyDetector()
        for i in range(8):
            assert det.observe("serving.x", i, i * 50.0, 1000.0) is None

    def test_flags_spike_after_warmup(self, monkeypatch):
        monkeypatch.setattr(anomaly, "WARMUP_ROUNDS", 4)
        det = AnomalyDetector()
        for i in range(12):
            det.observe("serving.x", i, i * 50.0, 10.0)
        flagged = det.observe("serving.x", 12, 600.0, 500.0)
        assert flagged is not None
        assert flagged.metric == "serving.x"
        assert flagged.delta == 500.0
        assert flagged.z_score > 4.0

    def test_min_deviation_forgives_small_wobble(self, monkeypatch):
        monkeypatch.setattr(anomaly, "WARMUP_ROUNDS", 2)
        monkeypatch.setattr(anomaly, "Z_THRESHOLD", 2.0)
        monkeypatch.setattr(anomaly, "MIN_DEVIATION", 5.0)
        det = AnomalyDetector()
        for i in range(10):
            det.observe("serving.x", i, i * 50.0, 10.0)
        # a +2 wobble is within min_deviation even if z is large
        assert det.observe("serving.x", 10, 500.0, 12.0) is None

    def test_watch_prefixes(self, monkeypatch):
        monkeypatch.setattr(anomaly, "PREFIXES", ("serving.",))
        det = AnomalyDetector()
        assert det.watches("serving.shed")
        assert not det.watches("health.alerts")

    def test_deterministic(self, monkeypatch):
        monkeypatch.setattr(anomaly, "WARMUP_ROUNDS", 2)

        def run():
            det = AnomalyDetector()
            out = []
            for i, v in enumerate([5, 5, 5, 5, 50, 5, 5, 80]):
                a = det.observe("serving.x", i, i * 50.0, float(v))
                if a is not None:
                    out.append(a.as_dict())
            return out

        assert run() == run()


class TestFlightRecorder:
    def test_ring_is_bounded(self, monkeypatch):
        monkeypatch.setattr(recorder, "CAPACITY", 4)
        rec = FlightRecorder()
        for i in range(10):
            rec.record("tick", float(i))
        entries = rec.snapshot_incident({"slo": "x"})["entries"]
        assert len(entries) == 4
        assert [e["seq"] for e in entries] == [7, 8, 9, 10]

    def test_incident_bundles_bounded(self, monkeypatch):
        monkeypatch.setattr(recorder, "CAPACITY", 8)
        monkeypatch.setattr(recorder, "MAX_INCIDENTS", 2)
        rec = FlightRecorder()
        for i in range(5):
            rec.snapshot_incident(
                {"slo": "x", "round": i},
                recent_spans=[], slo_statuses=[], quantiles={},
            )
        assert len(rec.bundles) == 2
        assert [b["alert"]["round"] for b in rec.bundles] == [3, 4]

    def test_bundle_carries_evidence(self):
        rec = FlightRecorder()
        rec.record("breaker", 5.0, node=2, dst="open")
        bundle = rec.snapshot_incident(
            {"slo": "coverage"},
            recent_spans=[{"name": "serve-wave"}],
            slo_statuses=[{"slo": "coverage", "met": False}],
            quantiles={"serving.latency_ms": {"p99": 120.0}},
        )
        assert bundle["entries"][0]["kind"] == "breaker"
        assert bundle["spans"] == [{"name": "serve-wave"}]
        assert bundle["quantiles"]["serving.latency_ms"]["p99"] == 120.0


class TestRegistrySketches:
    def test_observe_feeds_one_sketch(self, tmp_path):
        # int and float samples, some observed n > 1 times (as
        # ``arq.attempts`` is): count, sum and extremes are the plain
        # left fold of the values as passed, so an int extreme stays int
        observations = [(3, 2), (1, 1), (2.5, 4), (2, 3)]
        reg = MetricsRegistry()
        for v, n in observations:
            reg.observe("m", v, n=n, node=0)
        ((name, labels, sk),) = reg.sketches()
        assert (name, labels) == ("m", (("node", "0"),))
        total, low, high = 0.0, math.inf, -math.inf
        for v, n in observations:
            total += v * n
            low, high = min(low, v), max(high, v)
        assert sk.count == sum(n for _, n in observations)
        assert sk.total == total
        assert (sk.min_value, sk.max_value) == (low, high) == (1, 3)
        assert type(sk.min_value) is int and type(sk.max_value) is int
        assert sk.quantile(0.5) == pytest.approx(2.5, rel=0.02)
        path = write_metrics_csv(reg, tmp_path / "m.csv")
        rows = list(csv.reader(path.read_text().splitlines()))
        assert rows[1:] == [
            ["histogram", "m{node=0}", repr(total), "10", "1", "3"]
        ]

    def test_rejected_first_observation_stores_no_sketch(self):
        # the exporters divide by a series' count, so none may be empty
        reg = MetricsRegistry()
        for value, n in ((float("nan"), 1), (1.0, 0)):
            with pytest.raises(ConfigurationError):
                reg.observe("m", value, n=n)
        assert list(reg.sketches()) == []
        assert telemetry_summary(reg) == "(no metrics recorded)"

    def test_snapshot_includes_sketches(self):
        reg = MetricsRegistry()
        reg.observe("m", 1.0)
        snap = reg.snapshot()
        assert "sketches" in snap
        (cell,) = snap["sketches"].values()
        assert cell["count"] == 1


class TestExportersOnEmptyState:
    def test_chrome_trace_of_fresh_telemetry(self):
        tel = Telemetry()
        doc = chrome_trace_events(tel.tracer)
        # only process/thread metadata — no span, instant, or counter events
        assert all(e["ph"] == "M" for e in doc["traceEvents"])

    def test_telemetry_json_of_empty_registry(self):
        doc = telemetry_json(MetricsRegistry())
        assert doc["metrics"]["counters"] == {}
        assert doc["metrics"]["sketches"] == {}

    def test_instant_and_counter_events_render(self):
        tel = Telemetry()
        tel.instant("health-alert", slo="x")
        tel.instant("brownout-tier", counter=True, tier=2)
        events = chrome_trace_events(tel.tracer)["traceEvents"]
        phases = sorted(e["ph"] for e in events if e["ph"] in ("i", "C"))
        assert phases == ["C", "i"]


class TestHealthEngine:
    def test_disabled_engine_is_inert(self):
        engine = HealthEngine(NULL_TELEMETRY)
        assert not engine.enabled
        assert engine.observe_to(1000.0) == []
        assert engine.finalize(2000.0) == []
        assert engine.healthy
        assert engine.report()["rounds_observed"] == 0

    def test_preexisting_counters_are_baseline(self):
        tel = Telemetry()
        tel.inc("serving.shed", 500)  # an earlier storm's residue
        engine = HealthEngine(tel)
        engine.finalize(50.0)
        (status,) = (
            s for s in engine.slo_engine.statuses()
            if s.name == "serving-availability"
        )
        assert status.bad_events == 0  # baseline, not a round-0 delta

    def test_alert_free_run_yields_no_incidents(self):
        tel = Telemetry()
        engine = HealthEngine(tel)
        tel.inc("serving.submitted", 10)
        tel.inc("serving.completed", 10)
        engine.finalize(50.0)
        report = engine.report()
        assert report["healthy"]
        assert report["alerts"] == []
        assert report["incidents"] == []


#: counter names the detector watches, SLO counters among them
_WATCHED = (
    "serving.submitted", "serving.completed", "serving.shed",
    "serving.sla_violation", "serving.deadline_miss",
    "recovery.fencing.rejected", "recovery.fencing.accepted_stale",
    "recovery.failovers", "arq.retries", "arq.backoff_ms",
)
#: names it does not watch (``health.*`` never enters the totals)
_UNWATCHED = ("network.packets_sent", "storage.page_reads", "health.noise")
_LABELS = ((), (("kind", "q1"),), (("kind", "q3"),), (("node", "2"),))


@st.composite
def _counter_streams(draw):
    """Per-round counter increments of a few label cells.

    Each cell starts at a random round (so names first appear mid-run),
    may go quiet before the end, may carry one spike, and is either
    pushed with ``inc`` or kept in a table the registry collects.
    ``arq.backoff_ms`` moves by floats.
    """
    n_rounds = draw(st.integers(1, 40))
    cells = draw(st.lists(
        st.tuples(
            st.sampled_from(_WATCHED + _UNWATCHED),
            st.sampled_from(_LABELS),
            st.booleans(),
        ),
        min_size=1, max_size=8, unique_by=lambda cell: cell[:2],
    ))
    rounds: list[list[tuple]] = [[] for _ in range(n_rounds)]
    for name, labels, pulled in cells:
        start = draw(st.integers(0, n_rounds - 1))
        quiet = draw(st.integers(start + 1, n_rounds))
        if name == "arq.backoff_ms":
            rate = st.floats(0.0, 250.0, allow_nan=False)
        else:
            rate = st.integers(0, 6).map(float)
        spike = draw(st.none() | st.tuples(
            st.integers(start, quiet - 1), st.integers(20, 400)
        ))
        for r in range(start, quiet):
            delta = draw(rate)
            if spike is not None and spike[0] == r:
                delta += spike[1]
            rounds[r].append((name, labels, pulled, delta))
    latencies = draw(st.lists(
        st.lists(st.floats(1.0, 2000.0), max_size=3),
        min_size=n_rounds, max_size=n_rounds,
    ))
    baseline = draw(st.integers(0, 50))
    return rounds, latencies, baseline


def _replay(engine_cls, stream):
    rounds, latencies, baseline = stream
    tel = Telemetry()
    table: dict = {}
    tel.collect(table)
    if baseline:
        tel.inc("serving.submitted", baseline)  # residue of an earlier run
    engine = engine_cls(tel)
    for r, (increments, observed) in enumerate(zip(rounds, latencies)):
        for name, labels, pulled, delta in increments:
            if pulled:
                key = (name, labels)
                table[key] = table.get(key, 0.0) + delta
            else:
                tel.inc(name, delta, **dict(labels))
        for value in observed:
            tel.observe("serving.latency_ms", value)
        engine.observe_to((r + 1) * ROUND_MS)
    engine.finalize((len(rounds) + 0.5) * ROUND_MS)
    return tel, engine


class TestOnePassSample:
    """The one-pass round sample against the two-pass oracle."""

    @settings(max_examples=150, deadline=None)
    @given(_counter_streams())
    def test_matches_two_pass_oracle(self, stream):
        tel, engine = _replay(HealthEngine, stream)
        oracle_tel, oracle = _replay(TwoPassHealthEngine, stream)
        # as JSON text, so the key order of every record counts too
        assert json.dumps(list(engine.recorder._ring)) == json.dumps(
            list(oracle.recorder._ring)
        )
        assert engine.anomaly.anomalies == oracle.anomaly.anomalies
        assert engine.alerts == oracle.alerts
        assert json.dumps(engine.report()) == json.dumps(oracle.report())
        assert tel.snapshot() == oracle_tel.snapshot()

    def test_stream_with_a_spike_flags_alike(self):
        rounds = [
            [("arq.retries", (), False, 1.0), ("serving.shed", (), True, 0.0)]
            for _ in range(12)
        ]
        rounds[10][0] = ("arq.retries", (), False, 90.0)
        rounds[11] = []  # every watched counter goes quiet
        stream = (rounds, [[]] * 12, 0)
        _, engine = _replay(HealthEngine, stream)
        _, oracle = _replay(TwoPassHealthEngine, stream)
        assert [a.metric for a in engine.anomaly.anomalies] == ["arq.retries"]
        assert engine.anomaly.anomalies == oracle.anomaly.anomalies
        assert list(engine.recorder._ring) == list(oracle.recorder._ring)


class TestStormCalibration:
    """The chaos gates, asserted at the health-engine level (seed 0)."""

    def test_mild_storm_rides_out_without_alerts(self):
        result = run_storm(MILD, ChaosConfig(), telemetry=Telemetry())
        assert result.health is not None
        assert result.health["alerts"] == []
        assert result.health["incidents"] == []

    def test_moderate_storm_fires_fast_burn_with_incident(self):
        result = run_storm(MODERATE, ChaosConfig(), telemetry=Telemetry())
        health = result.health
        assert health is not None
        fast = [a for a in health["alerts"] if a["severity"] == "fast"]
        assert fast, health["alerts"]
        assert fast[0]["slo"] == "serving-coverage"
        assert len(health["incidents"]) >= len(health["alerts"])
        bundle = health["incidents"][0]
        assert bundle["spans"], "incident must carry the span tail"
        kinds = {e["kind"] for e in bundle["entries"]}
        assert "metrics" in kinds
        assert kinds & {"breaker", "brownout", "shed"}, kinds

    def test_health_is_observational(self):
        """Attaching a live health engine changes no output byte."""
        silent = run_storm(MODERATE, ChaosConfig())
        live = run_storm(MODERATE, ChaosConfig(), telemetry=Telemetry())
        assert silent.health is None and live.health is not None
        assert silent.report.response_log == live.report.response_log
        assert silent.breaker_transitions == live.breaker_transitions

    def test_repeat_runs_byte_identical_with_health(self):
        a = run_storm(MODERATE, ChaosConfig(), telemetry=Telemetry())
        b = run_storm(MODERATE, ChaosConfig(), telemetry=Telemetry())
        assert a.report.response_log == b.report.response_log
        assert a.health["alerts"] == b.health["alerts"]
        assert a.health["incidents"] == b.health["incidents"]
