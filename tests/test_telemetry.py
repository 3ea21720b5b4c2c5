"""Tests for the telemetry subsystem: registry, tracer, exporters, CLI.

Covers the PR's acceptance criteria: histogram bucket-edge semantics,
span nesting/ordering determinism under a fixed seed, Chrome-trace JSON
schema validity, the NullTelemetry zero-impact regression (byte-identical
event logs, per PR 1's determinism guarantee), and the end-to-end traced
distributed query.
"""

import json

import pytest

from repro.errors import ConfigurationError
from repro.telemetry import NULL_TELEMETRY, NullTelemetry, Telemetry
from repro.telemetry.clock import SimClock
from repro.telemetry.exporters import chrome_trace_events, telemetry_json
from repro.telemetry.registry import (
    Histogram,
    MetricsRegistry,
    format_metric,
    label_key,
)
from repro.telemetry.scenarios import SCENARIOS, run_scenario
from repro.telemetry.tracer import Tracer

#: Seed for which the seizure scenario's distributed query is known to
#: need at least one ARQ retransmission for its QUERY broadcast (the
#: end-to-end acceptance criterion needs retries *inside* the query
#: trace, not merely somewhere in the session).
QUERY_RETRY_SEED = 2


class TestHistogramBuckets:
    """Bucket-edge semantics: counts[i] holds edges[i-1] < v <= edges[i]."""

    def test_edges_are_upper_inclusive(self):
        hist = Histogram(edges=(1.0, 2.0, 4.0))
        assert hist.bucket_index(0.5) == 0
        assert hist.bucket_index(1.0) == 0  # on-edge lands below
        assert hist.bucket_index(1.0000001) == 1
        assert hist.bucket_index(2.0) == 1
        assert hist.bucket_index(4.0) == 2
        assert hist.bucket_index(4.0000001) == 3  # overflow

    def test_counts_cover_edges_plus_overflow(self):
        hist = Histogram(edges=(1.0, 2.0, 4.0))
        assert len(hist.counts) == 4
        for v in (0.5, 1.0, 3.0, 100.0):
            hist.observe(v)
        assert hist.counts == [2, 0, 1, 1]
        assert hist.n == 4
        assert hist.mean == pytest.approx((0.5 + 1.0 + 3.0 + 100.0) / 4)
        assert hist.min_value == 0.5
        assert hist.max_value == 100.0

    def test_as_dict_round_trips_through_json(self):
        hist = Histogram(edges=(1.0, 10.0))
        hist.observe(5.0)
        doc = json.loads(json.dumps(hist.as_dict()))
        assert doc["counts"] == [0, 1, 0]
        assert doc["count"] == 1

    def test_empty_histogram_reports_none_extremes(self):
        assert Histogram(edges=(1.0,)).as_dict()["min"] is None

    def test_invalid_edges_rejected(self):
        with pytest.raises(ConfigurationError):
            Histogram(edges=())
        with pytest.raises(ConfigurationError):
            Histogram(edges=(2.0, 1.0))
        with pytest.raises(ConfigurationError):
            Histogram(edges=(1.0, 1.0))


class TestRegistry:
    def test_label_order_is_canonicalised(self):
        reg = MetricsRegistry()
        reg.inc("pe.busy_us", 3.0, pe="DTW", node=1)
        reg.inc("pe.busy_us", 4.0, node=1, pe="DTW")
        assert reg.counter("pe.busy_us", node=1, pe="DTW") == 7.0
        assert format_metric("pe.busy_us", label_key({"pe": "DTW", "node": 1})
                             ) == "pe.busy_us{node=1,pe=DTW}"

    def test_counters_reject_negative_deltas(self):
        reg = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            reg.inc("x", -1.0)

    def test_gauges_overwrite(self):
        reg = MetricsRegistry()
        reg.set_gauge("g", 1.0)
        reg.set_gauge("g", 2.0)
        assert reg.gauge("g") == 2.0

    def test_snapshot_is_deterministically_ordered(self):
        reg = MetricsRegistry()
        reg.inc("b")
        reg.inc("a", 2.0, z="1", a="2")
        snap = reg.snapshot()
        assert list(snap["counters"]) == ["a{a=2,z=1}", "b"]


class TestTracerNesting:
    def test_stack_parentage_and_fresh_traces(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("child") as child:
                assert child.trace_id == root.trace_id
                assert child.parent_id == root.span_id
        with tracer.span("next-root") as other:
            assert other.trace_id != root.trace_id
            assert other.parent_id is None

    def test_explicit_trace_context_wins_over_stack(self):
        tracer = Tracer()
        with tracer.span("local-root"):
            with tracer.span("remote", trace=None) as on_stack:
                pass
            remote_ctx = on_stack.context
        with tracer.span("unrelated"):
            with tracer.span("joined", trace=remote_ctx) as joined:
                assert joined.trace_id == on_stack.trace_id
                assert joined.parent_id == on_stack.span_id

    def test_spans_use_simulated_time(self):
        clock = SimClock()
        tracer = Tracer(clock=clock)
        with tracer.span("op") as span:
            clock.advance_ms(2.0)
        assert span.start_us == 0.0
        assert span.duration_us == pytest.approx(2000.0)


class TestScenarioDeterminism:
    """Same seed => byte-identical spans, ids, timestamps, and metrics."""

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_scenarios_run(self, name):
        tel = run_scenario(name, seed=0)
        assert tel.tracer.spans
        assert tel.registry.snapshot()["counters"] or name == "fig9a"

    def test_seizure_spans_identical_across_runs(self):
        a = run_scenario("seizure", seed=3)
        b = run_scenario("seizure", seed=3)
        assert [s.as_dict() for s in a.tracer.spans] == [
            s.as_dict() for s in b.tracer.spans
        ]
        assert a.clock.now_us == b.clock.now_us

    def test_seizure_metrics_identical_across_runs(self):
        snap_a = run_scenario("seizure", seed=1).registry.snapshot()
        snap_b = run_scenario("seizure", seed=1).registry.snapshot()
        # every registry value is simulated, so snapshots are
        # byte-identical
        assert json.dumps(snap_a, sort_keys=True) == json.dumps(
            snap_b, sort_keys=True
        )

    def test_fig9a_metrics_identical_across_runs(self):
        """The scheduler books no host-clock value: 24 solves, two runs,
        one snapshot."""
        snap_a = run_scenario("fig9a").registry.snapshot()
        snap_b = run_scenario("fig9a").registry.snapshot()
        assert json.dumps(snap_a, sort_keys=True) == json.dumps(
            snap_b, sort_keys=True
        )

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError):
            run_scenario("nope")


def _validate_chrome_trace(doc: dict) -> list[dict]:
    """Assert the Chrome trace-event schema; return the X events."""
    assert set(doc) == {"traceEvents", "displayTimeUnit"}
    assert doc["displayTimeUnit"] in ("ms", "ns")
    complete = []
    for event in doc["traceEvents"]:
        assert {"ph", "pid", "name"} <= set(event)
        assert event["ph"] in ("M", "X", "i", "C")
        assert isinstance(event["pid"], int)
        if event["ph"] == "M":
            assert isinstance(event["tid"], int)
            assert event["name"] in ("process_name", "thread_name")
            assert "name" in event["args"]
        elif event["ph"] == "i":
            assert isinstance(event["tid"], int)
            assert isinstance(event["ts"], (int, float))
            assert event["s"] in ("t", "p", "g")
            assert "instant" not in event["args"]
        elif event["ph"] == "C":
            assert isinstance(event["ts"], (int, float))
            assert event["args"]  # a counter event needs a series value
        else:
            assert isinstance(event["tid"], int)
            assert isinstance(event["ts"], (int, float))
            assert isinstance(event["dur"], (int, float))
            assert event["dur"] >= 0
            assert "trace_id" in event["args"]
            assert "span_id" in event["args"]
            complete.append(event)
    return complete


class TestChromeTraceExport:
    def test_schema_validity_and_json_round_trip(self):
        tel = run_scenario("seizure", seed=0)
        doc = json.loads(json.dumps(chrome_trace_events(tel.tracer)))
        complete = _validate_chrome_trace(doc)
        assert len(complete) == len(
            [s for s in tel.tracer.spans if s.end_us is not None]
        )
        # per-node work renders on per-node tracks
        assert {e["tid"] for e in complete} > {0}

    def test_telemetry_json_contains_metrics_and_spans(self):
        tel = run_scenario("queries", seed=0)
        doc = json.loads(
            json.dumps(telemetry_json(tel.registry, tel.tracer))
        )
        assert set(doc) == {"metrics", "spans"}
        assert doc["metrics"]["counters"]["query.executed{kind=q1}"] == 1.0
        assert all(
            {"name", "trace_id", "span_id", "parent_id", "start_us",
             "end_us", "attrs"} == set(s) for s in doc["spans"]
        )


def _faulted_session(telemetry):
    """One seeded faulty session; returns (event_log, network_stats, arq)."""
    import numpy as np

    from repro.core.system import ScaloSystem
    from repro.faults.injector import FaultInjector
    from repro.faults.plan import FaultPlan
    from repro.units import WINDOW_SAMPLES

    system = ScaloSystem(
        n_nodes=4, electrodes_per_node=4, seed=7, arq=True,
        telemetry=telemetry,
    )
    plan = FaultPlan.generate(
        4, 12, seed=7, n_crashes=1, reboot_after=4, n_outages=1,
        outage_rounds=2, n_bit_rot=1, n_drift_spikes=1,
    )
    injector = FaultInjector(system, plan)
    rng = np.random.default_rng(7)
    for round_index in range(plan.n_rounds):
        injector.step()
        batches = system.ingest(
            rng.normal(size=(4, 4, WINDOW_SAMPLES)).astype(np.float32)
        )
        for src in system.alive_node_ids:
            if batches[src]:
                system.broadcast_hashes(
                    src, batches[src], seq=(round_index * 4 + src) & 0xFFFF
                )
    assert system.link is not None
    return injector.event_log(), system.network.stats, system.link.stats


class TestNullTelemetryZeroImpact:
    """Attaching telemetry must not perturb a seeded scenario at all."""

    def test_event_logs_byte_identical_with_and_without_telemetry(self):
        log_null, stats_null, arq_null = _faulted_session(NULL_TELEMETRY)
        log_live, stats_live, arq_live = _faulted_session(Telemetry())
        assert log_null == log_live  # byte-identical event logs
        assert stats_null == stats_live
        assert arq_null == arq_live

    def test_null_telemetry_is_inert(self):
        null = NullTelemetry()
        assert not null.enabled
        null.inc("x")
        null.set_gauge("g", 1.0)
        null.observe("h", 2.0)
        null.advance_ms(5.0)
        assert null.current_context() is None
        with null.span("anything", irrelevant=1) as span:
            assert span is None


class TestEndToEndQueryTrace:
    """The acceptance criterion: one seeded query, one distributed trace."""

    def test_query_trace_covers_all_stages(self):
        tel = run_scenario("seizure", seed=QUERY_RETRY_SEED)
        (query,) = tel.spans_named("query")
        trace = tel.tracer.trace(query.trace_id)
        names = [s.name for s in trace]
        assert names.count("lookup") == 4
        assert "arq-retry" in names
        assert "merge" in names
        broadcasts = [s for s in trace if s.name == "broadcast"]
        assert len(broadcasts) == 1 and broadcasts[0].attrs["kind"] == "query"

    def test_trace_ids_propagate_through_packet_metadata(self):
        tel = run_scenario("seizure", seed=QUERY_RETRY_SEED)
        (query,) = tel.spans_named("query")
        trace = tel.tracer.trace(query.trace_id)
        broadcast = next(s for s in trace if s.name == "broadcast")
        lookups = [s for s in trace if s.name == "lookup"]
        # the coordinator's lookup nests under the local query span; every
        # other node's lookup is parented on the *broadcast* span whose
        # context rode the QUERY packet across the air
        remote = [s for s in lookups if s.parent_id == broadcast.span_id]
        assert len(remote) == 3
        retries = [s for s in trace if s.name == "arq-retry"]
        assert all(r.parent_id == broadcast.span_id for r in retries)
        merge = next(s for s in trace if s.name == "merge")
        assert merge.parent_id == query.span_id

    def test_chrome_export_of_query_trace(self, tmp_path):
        from repro.telemetry.exporters import write_chrome_trace

        tel = run_scenario("seizure", seed=QUERY_RETRY_SEED)
        path = write_chrome_trace(tel.tracer, tmp_path / "out.trace.json")
        doc = json.loads(path.read_text())
        complete = _validate_chrome_trace(doc)
        (query,) = tel.spans_named("query")
        in_trace = {
            e["name"]
            for e in complete
            if e["args"]["trace_id"] == query.trace_id
        }
        assert {"query", "broadcast", "lookup", "arq-retry", "merge"} <= in_trace


class TestTraceCLI:
    def test_trace_command_exports_valid_json(self, tmp_path, capsys):
        from repro.__main__ import main

        out = tmp_path / "out.trace.json"
        csv_out = tmp_path / "metrics.csv"
        assert main(["trace", "seizure", "--export", str(out),
                     "--csv", str(csv_out)]) == 0
        _validate_chrome_trace(json.loads(out.read_text()))
        assert csv_out.read_text().startswith("kind,metric,value")
        printed = capsys.readouterr().out
        assert "== counters ==" in printed
        assert "arq.retries" in printed
        assert "== spans" in printed

    def test_unknown_target_prints_command_list_and_exits_2(self, capsys):
        from repro.__main__ import main

        assert main(["bogus"]) == 2
        err = capsys.readouterr().err
        assert "unknown target 'bogus'" in err
        assert "trace" in err and "fig9a" in err

    def test_unknown_scenario_exits_2(self, capsys):
        from repro.__main__ import main

        assert main(["trace", "not-a-scenario"]) == 2
        err = capsys.readouterr().err
        assert "available" in err
        assert "usage:" in err
