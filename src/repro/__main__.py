"""Command-line entry point: regenerate any paper table/figure.

Usage::

    python -m repro list                # what can be regenerated
    python -m repro table1              # PE catalog
    python -m repro fig8a               # architecture comparison
    python -m repro fig15a --reps 500   # Monte-Carlo sweeps
    python -m repro trace seizure       # run a scenario under telemetry
    python -m repro recover             # crash + reboot + resync smoke run
    python -m repro query --nodes 4     # Q1/Q2/Q3 over a live fleet
    python -m repro serve --qps 40      # open-loop load against the server
    python -m repro serve --fault-plan moderate   # serving under a storm
    python -m repro chaos --csv out.csv # three-level fault-storm sweep
    python -m repro health moderate     # SLO verdicts + incident bundles
    python -m repro fabric --tenants 8  # multi-tenant fleet fabric run
    python -m repro all                 # everything (slow)

Every subcommand gets its own parser assembled from shared option
groups (one definition each for ``--seed``, ``--csv``, ``--export``,
``--health-report``, the figure knobs, the serving knobs), so flags
validate identically everywhere and ``python -m repro <cmd> --help``
shows only what that command accepts.

``trace`` runs a canned scenario with a live telemetry handle, prints
the metrics/span summary tables, and with ``--export out.trace.json``
writes a Chrome trace-event file loadable in Perfetto or
``chrome://tracing``.

``health`` replays one fault storm with a
:class:`~repro.telemetry.health.engine.HealthEngine` attached and prints the
SLO scoreboard, fired burn-rate alerts, anomalies, and incident
bundles; ``--health-report out.json`` (also accepted by ``serve``,
``chaos``, and ``fabric``) writes the full verdict as JSON.

``fabric`` runs a seeded multi-tenant load over a
:class:`~repro.fabric.fabric.FleetFabric` — consistent-hash tenant routing,
per-tenant admission quotas, a cross-fleet population query — and
prints the per-tenant scoreboard with per-tenant SLO verdicts.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Callable

from repro.errors import ScaloError


def _table1(args) -> None:
    from repro.eval.tables import table1_text

    print(table1_text())


def _table3(args) -> None:
    from repro.eval.tables import table3_text

    print(table3_text())


def _fig8a(args) -> None:
    from repro.core.architectures import DESIGNS, TASKS
    from repro.eval.throughput import fig8a

    grid = fig8a(n_nodes=args.nodes, power_mw=args.power)
    print(f"{'design':16s}" + "".join(f"{t:>20s}" for t in TASKS))
    for design in DESIGNS:
        print(f"{design:16s}"
              + "".join(f"{grid[design][t]:20.1f}" for t in TASKS))


def _surfaces(figure: str) -> Callable:
    """Handler for fig8b/fig8c: a power-by-node-count table per method."""

    def handler(args) -> None:
        from repro.eval import throughput

        for method, surface in getattr(throughput, figure)().items():
            print(f"-- {method} (Mbps)")
            for power, row in surface.items():
                cells = "".join(
                    f"{row[n]:9.1f}" for n in throughput.NODE_COUNTS
                )
                print(f"{power:>6.0f}mW{cells}")

    return handler


def _node_rows(figure: str) -> Callable:
    """Handler for fig9a/fig9b: a row per series, a column per node count."""

    def handler(args) -> None:
        from repro.eval import application

        for label, row in getattr(application, figure)().items():
            cells = "".join(
                f"{row[n]:9.1f}" for n in application.FIG9_NODE_COUNTS
            )
            print(f"{label:>8s}{cells}")

    return handler


def _fig10(args) -> None:
    from repro.eval.queries import fig10

    for query, cells in fig10().items():
        print(f"-- {query}")
        for (time_range, fraction), qps in cells.items():
            print(f"  {time_range:6.0f} ms @ {fraction:4.0%}: {qps:6.2f} QPS")


def _fig11(args) -> None:
    from repro.eval.hash_accuracy import fig11

    for name, result in fig11(n_pairs=args.pairs).items():
        print(f"{name:>10s}: total {result.total_error_pct:.1f}% "
              f"fp_share {result.false_positive_share:.2f}")


def _fig12(args) -> None:
    from repro.eval.network_errors import fig12

    for ber, r in fig12(n_packets=args.packets).items():
        print(f"BER {ber:.0e}: hash {r.hash_packet_error_pct:.2f}% "
              f"signal {r.signal_packet_error_pct:.2f}% "
              f"dtw-fail {r.dtw_failure_pct:.2f}%")


def _fig13(args) -> None:
    from repro.eval.radio_dse import fig13

    for radio, row in fig13(n_nodes=args.nodes).items():
        cells = " ".join(f"{k}={v:.2f}" for k, v in row.items())
        print(f"{radio:>14s}: {cells}")


def _fig14(args) -> None:
    from repro.eval.hash_params import fig14, shared_configs

    results = fig14(n_pairs=args.pairs)
    for name, r in results.items():
        print(f"{name:>10s}: best={r.best} tpr={r.best_tpr:.2f} "
              f"near-best={len(r.near_best)}")
    print("shared:", shared_configs(results))


def _fig15(args) -> None:
    from repro.eval.delay import fig15

    result = fig15(n_reps=args.reps)
    print("encoding errors (rate: mean/max ms):")
    for rate, stats in result.encoding.items():
        print(f"  {rate:.1f}: {stats.mean_ms:.2f} / {stats.max_ms:.2f}")
    print("network BER (ber: mean/max ms):")
    for ber, stats in result.network.items():
        print(f"  {ber:.0e}: {stats.mean_ms:.3f} / {stats.max_ms:.3f}")


def _sec62(args) -> None:
    from repro.eval.throughput import sec62_local_tasks

    for task, curve in sec62_local_tasks().items():
        cells = " ".join(f"{p:.0f}mW={v:.1f}" for p, v in curve.items())
        print(f"{task}: {cells}")


def _sec63(args) -> None:
    from repro.eval.application import sec63_scalars

    for key, value in sec63_scalars().items():
        print(f"{key}: {value:.2f}")


def _resilience(args) -> None:
    from repro.eval.resilience import (
        crash_query_degradation,
        crash_recovery_coverage,
        resilience_sweep,
    )

    print("ARQ recovery vs BER:")
    for ber, r in resilience_sweep(n_packets=args.packets).items():
        print(f"  BER {ber:.0e}: initial-loss {r.initial_loss_pct:5.2f}% "
              f"recovered {r.recovery_rate_pct:6.2f}% "
              f"residual {r.residual_loss_pct:5.2f}% "
              f"airtime +{r.airtime_overhead_pct:.1f}%")
    result = crash_query_degradation(n_nodes=args.nodes)
    print(f"crash query: degraded={result.degraded} "
          f"coverage={result.coverage:.2f} rows={len(result.rows)} "
          f"failed={result.failed_nodes}")
    rec = crash_recovery_coverage(n_nodes=args.nodes)
    print(f"crash recovery: coverage {rec.coverage_before:.2f} -> "
          f"{rec.coverage_after:.2f} replayed={rec.records_replayed} "
          f"pulled={rec.batches_pulled} pushed={rec.batches_pushed} "
          f"scrubbed={rec.scrub_bits_corrected}")


def _recover(args) -> None:
    from repro.eval.reporting import span_summary, telemetry_summary
    from repro.telemetry.exporters import write_chrome_trace, write_metrics_csv
    from repro.telemetry.scenarios import run_scenario

    telemetry = run_scenario("recover", seed=args.seed)
    reg = telemetry.registry
    print(f"-- crash + reboot + resync (seed {args.seed}), "
          f"simulated time {telemetry.clock.now_ms:.2f} ms\n")
    print("recovery counters:")
    for key in (
        "recovery.replays",
        "recovery.records_replayed",
        "recovery.checkpoints",
        "recovery.scrub_pages",
        "recovery.scrub_corrected",
        "recovery.scrub_uncorrectable",
        "recovery.resync_requests",
        "recovery.resync_batches_pulled",
        "recovery.resync_batches_pushed",
        "recovery.failovers",
        "recovery.nodes_recovered",
    ):
        print(f"  {key:34s} {reg.counter(key):8.0f}")
    print(f"  {'query coverage after recovery':34s} "
          f"{reg.gauge('scenario.coverage'):8.2f}")
    print()
    print(telemetry_summary(reg))
    print()
    print(span_summary(telemetry.tracer))
    if args.export:
        path = write_chrome_trace(telemetry.tracer, args.export)
        print(f"\nChrome trace written to {path}")
    if args.csv:
        path = write_metrics_csv(reg, args.csv)
        print(f"metrics CSV written to {path}")


def _query(args) -> None:
    import numpy as np

    from repro.api import Telemetry, build_system, run_query

    telemetry = Telemetry()
    system = build_system(
        n_nodes=args.nodes, electrodes_per_node=8, seed=args.seed,
        telemetry=telemetry,
    )
    rng = np.random.default_rng(args.seed)
    n_windows = 4
    windows = None
    for _ in range(n_windows):
        windows = rng.normal(size=(args.nodes, 8, 120)).cumsum(axis=2)
        system.ingest(windows)
    template = windows[0][0]
    flags = {node: {0, n_windows - 1} for node in range(args.nodes)}
    window_range = args.range if args.range is not None else (0, n_windows)
    reg = telemetry.registry
    print(f"-- interactive queries over {args.nodes} implants, "
          f"{n_windows} windows x 8 electrodes (seed {args.seed})\n")
    for kind, kwargs in (
        ("q1", {"seizure_flags": flags}),
        ("q2", {"template": template}),
        ("q3", {}),
    ):
        hits0 = reg.counter("query.cache_hit")
        misses0 = reg.counter("query.cache_miss")
        result = run_query(system, kind, window_range, **kwargs)
        hits = reg.counter("query.cache_hit") - hits0
        misses = reg.counter("query.cache_miss") - misses0
        cache = (f", cache {hits:.0f} hit / {misses:.0f} miss"
                 if kind == "q2" else "")
        print(f"  {kind}: {len(result.rows):4d} rows, "
              f"coverage {result.coverage:.0%}{cache}")
    scanned = sum(
        value
        for name, _, value in reg.counters()
        if name == "query.batch_windows"
    )
    print(f"\n  batched windows scanned: {scanned:.0f}")


def _write_health_report(path: str, doc: dict):
    """Write one health-verdict JSON document (ScaloError on failure)."""
    import json
    import pathlib

    from repro.errors import ConfigurationError

    target = pathlib.Path(path)
    try:
        target.write_text(json.dumps(doc, indent=2, sort_keys=True))
    except OSError as exc:
        raise ConfigurationError(
            f"cannot write health report to {path!r}: {exc}"
        ) from None
    return target


def _print_health_summary(report: dict) -> None:
    """The human view of one :meth:`HealthEngine.report` document."""
    print("health:")
    for slo in report["slos"]:
        verdict = "met    " if slo["met"] else "MISSED "
        print(f"  {slo['slo']:24s} {verdict} "
              f"attainment {slo['attainment']:7.2%}  "
              f"objective {slo['objective']:.2%}  "
              f"alerts {slo['alerts_fired']}")
    for alert in report["alerts"]:
        print(f"  ALERT {alert['message']}")
    if report["anomalies"]:
        print(f"  anomalies: {len(report['anomalies'])} flagged "
              "(rate excursions vs EWMA band)")
    for bundle in report["incidents"]:
        alert = bundle["alert"]
        print(f"  incident {bundle['incident']}: {alert['severity']}-burn "
              f"{alert['slo']} at round {alert['round']} — "
              f"{len(bundle['entries'])} recorder entries, "
              f"{len(bundle['spans'])} spans")


def _health(args) -> None:
    from repro.errors import ConfigurationError
    from repro.eval.chaos import FAULT_PRESETS, ChaosConfig, run_storm
    from repro.telemetry import Telemetry
    from repro.telemetry.health.engine import HealthEngine

    name = args.scenario or "moderate"
    level = FAULT_PRESETS.get(name)
    if level is None:
        raise ConfigurationError(
            f"unknown storm {name!r}; available: mild, moderate, severe"
        )
    telemetry = Telemetry()
    health = HealthEngine(telemetry)
    config = ChaosConfig(seed=args.seed)
    result = run_storm(level, config, telemetry, health=health)
    report = result.health
    r = result.report
    print(f"-- fleet health under the {name} storm "
          f"(seed {args.seed}, {report['rounds_observed']} TDMA rounds)\n")
    print(f"  availability {r.availability:7.2%}   "
          f"SLA {r.sla_violations_initial} initial -> "
          f"{r.sla_violations_final} final violations   "
          f"p99 {r.p99_latency_ms:.1f} ms\n")
    _print_health_summary(report)
    verdict = "healthy" if report["healthy"] else "NOT healthy"
    print(f"\n  verdict: {verdict} "
          f"({len(report['alerts'])} alerts, "
          f"{len(report['incidents'])} incidents)")
    if args.health_report:
        path = _write_health_report(
            args.health_report, {"storm": name, **report, "row": result.row()}
        )
        print(f"\nhealth report written to {path}")


def _serve(args) -> None:
    from repro.api import Telemetry, serve_session
    from repro.eval.reporting import span_summary, telemetry_summary
    from repro.serving.loadgen import LoadGenConfig
    from repro.serving.reliability import RetryPolicy
    from repro.serving.server import ServerConfig
    from repro.telemetry.exporters import write_metrics_csv
    from repro.telemetry.health.engine import HealthEngine

    telemetry = Telemetry()
    health = HealthEngine(telemetry)
    fault_plan = None
    client_retry = None
    min_coverage = 0.0
    retry = None
    brownout = False
    n_nodes = 4
    if args.fault_plan not in (None, "none"):
        from repro.eval.chaos import FAULT_PRESETS

        # A storm implies the chaos-hardened posture: retries on both
        # sides, brownout tiers armed, and a coverage SLA one dead node
        # out of four violates.
        level = FAULT_PRESETS[args.fault_plan]
        fault_plan = level.plan(n_nodes, 64, args.seed)
        retry = RetryPolicy(seed=args.seed)
        client_retry = RetryPolicy(seed=args.seed + 1)
        brownout = True
        min_coverage = 0.9
    load = LoadGenConfig(
        n_requests=args.requests,
        offered_qps=args.qps,
        seed=args.seed,
        deadline_ms=args.deadline_ms,
        min_coverage=min_coverage,
    )
    config = ServerConfig(
        max_queue=args.queue,
        coalesce=not args.serial,
        default_deadline_ms=args.deadline_ms,
        brownout=brownout,
        retry=retry,
        default_min_coverage=min_coverage,
    )
    _, report = serve_session(
        n_nodes=n_nodes,
        electrodes=8,
        seed=args.seed,
        load=load,
        server_config=config,
        telemetry=telemetry,
        fault_plan=fault_plan,
        client_retry=client_retry,
        health=health,
    )
    mode = "serial" if args.serial else "coalesced"
    storm = (
        f", {args.fault_plan} fault storm"
        if fault_plan is not None
        else ""
    )
    print(f"-- open-loop serving, {report.offered_qps:.0f} QPS offered, "
          f"{mode} dispatch (seed {args.seed}{storm})\n")
    print(f"  offered    {report.n_offered:6d}")
    print(f"  completed  {report.completed:6d}")
    print(f"  shed       {report.shed:6d}  ({report.shed_rate:.1%})")
    print(f"  misses     {report.deadline_misses:6d}  "
          f"({report.miss_rate:.1%} of completed)")
    print(f"  waves      {report.waves:6d}  "
          f"(coalesced requests: {report.coalesced_requests})")
    print(f"  latency    mean {report.mean_latency_ms:7.1f} ms   "
          f"p50 {report.p50_latency_ms:7.1f} ms   "
          f"p99 {report.p99_latency_ms:7.1f} ms")
    print(f"  max queue  {report.max_queue_depth:6d}")
    print(f"  degraded   {report.degraded_responses:6d}")
    if fault_plan is not None:
        print(f"  available  {report.availability:7.1%}")
        print(f"  retries    client {report.client_retries:d}  "
              f"server {report.server_retries:d}")
        print(f"  SLA        {report.sla_violations_initial:d} initial -> "
              f"{report.sla_violations_final:d} final violations")
        print(f"  breakers   opened {report.breaker_opened:d}  "
              f"half-open {report.breaker_half_open:d}  "
              f"closed {report.breaker_closed:d}")
        tiers = ", ".join(
            f"tier{t}={n}" for t, n in sorted(report.brownout_waves.items())
        )
        print(f"  brownout   {tiers}  (rejections: "
              f"{report.brownout_rejections})")
    print()
    _print_health_summary(health.report())
    print()
    print(telemetry_summary(telemetry.registry))
    print()
    print(span_summary(telemetry.tracer))
    if args.csv:
        path = write_metrics_csv(telemetry.registry, args.csv)
        print(f"\nmetrics CSV written to {path}")
    if args.health_report:
        path = _write_health_report(args.health_report, health.report())
        print(f"\nhealth report written to {path}")


def _chaos(args) -> None:
    from repro.eval.chaos import (
        MIN_COVERAGE,
        OFFERED_QPS,
        ChaosConfig,
        chaos_sweep,
        partition_config,
        run_partition_storm,
    )
    from repro.eval.reporting import span_summary, telemetry_summary
    from repro.telemetry import Telemetry
    from repro.telemetry.exporters import write_metrics_csv

    from repro.errors import ConfigurationError

    if args.scenario not in (None, "partition"):
        raise ConfigurationError(
            f"unknown chaos scenario {args.scenario!r}; "
            "'partition' runs the split-brain storm, no argument runs "
            "the three-level sweep"
        )
    telemetry = Telemetry()
    if args.scenario == "partition":
        config = partition_config(seed=args.seed)
        sweep = run_partition_storm(config, telemetry)
        print(f"-- partition storm: {config.n_requests} requests at "
              f"{OFFERED_QPS:.0f} QPS over {config.n_nodes} implants, "
              f"quorum {config.n_nodes // 2 + 1} (seed {config.seed})\n")
    else:
        config = ChaosConfig(seed=args.seed)
        sweep = chaos_sweep(config, telemetry)
        print(f"-- chaos sweep: {config.n_requests} requests at "
              f"{OFFERED_QPS:.0f} QPS over {config.n_nodes} implants, "
              f"coverage SLA {MIN_COVERAGE:.2f} (seed {config.seed})\n")
    for line in sweep.table():
        print(f"  {line}")
    print()
    print(telemetry_summary(telemetry.registry))
    print()
    print(span_summary(telemetry.tracer))
    if args.csv:
        path = write_metrics_csv(telemetry.registry, args.csv)
        print(f"\nmetrics CSV written to {path}")
    if args.health_report:
        path = _write_health_report(args.health_report, sweep.health_report())
        print(f"\nhealth report written to {path}")


def _fabric(args) -> None:
    from repro.eval.reporting import telemetry_summary
    from repro.fabric.fabric import FabricConfig
    from repro.fabric.loadgen import FabricLoadConfig, fabric_session
    from repro.fabric.slos import tenant_slos
    from repro.telemetry import Telemetry
    from repro.telemetry.exporters import write_metrics_csv
    from repro.telemetry.health.engine import (
        DEFAULT_SERVING_SLOS,
        HealthEngine,
    )

    config = FabricConfig(
        n_fleets=args.fleets,
        nodes_per_fleet=args.nodes,
        electrodes=4,
        seed=args.seed,
    )
    load = FabricLoadConfig(
        n_tenants=args.tenants,
        requests_per_tenant=args.requests,
        offered_qps=args.qps,
        seed=args.seed,
    )
    telemetry = Telemetry()
    health = HealthEngine(
        telemetry,
        slos=tuple(DEFAULT_SERVING_SLOS) + tenant_slos(load.tenants),
    )
    fabric, report = fabric_session(
        config=config, load=load, telemetry=telemetry, health=health
    )
    print(f"-- fleet fabric: {report.n_tenants} tenants over "
          f"{report.n_fleets} fleets x {args.nodes} implants, "
          f"{load.offered_qps:.0f} QPS/tenant (seed {args.seed})\n")
    print(f"  offered    {report.offered:6d}")
    print(f"  completed  {report.completed:6d}  "
          f"({report.availability:.1%} available)")
    print(f"  shed       {report.shed:6d}")
    print(f"  misses     {report.deadline_misses:6d}")
    print(f"  latency    mean {report.mean_latency_ms:7.1f} ms   "
          f"p99 {report.p99_latency_ms:7.1f} ms\n")
    print(f"  {'tenant':8s} {'fleet':>5s} {'offered':>8s} {'done':>6s} "
          f"{'shed':>6s} {'miss':>6s} {'p50 ms':>8s} {'p99 ms':>8s} "
          f"{'evicted':>8s}")
    for tenant, stats in sorted(report.tenants.items()):
        print(f"  {tenant:8s} {stats.fleet_id:5d} {stats.offered:8d} "
              f"{stats.completed:6d} {stats.shed:6d} "
              f"{stats.deadline_misses:6d} {stats.p50_latency_ms:8.1f} "
              f"{stats.p99_latency_ms:8.1f} {stats.results_evicted:8d}")
    from repro.apps.queries import QuerySpec
    from repro.serving.loadgen import TIME_RANGE_MS

    pop = fabric.population_query(
        QuerySpec(kind="q1", time_range_ms=TIME_RANGE_MS)
    )
    print(f"\n  population q1: {pop.n_fleets} fleets, "
          f"latency {pop.latency_ms:.1f} ms "
          f"(gather {pop.gather_ms:.2f} ms), "
          f"coverage {pop.coverage:.2f}, rows {pop.n_rows}, "
          f"shed fleets {len(pop.shed_fleets)}")
    print()
    _print_health_summary(health.report())
    print()
    print(telemetry_summary(telemetry.registry))
    if args.csv:
        path = write_metrics_csv(telemetry.registry, args.csv)
        print(f"\nmetrics CSV written to {path}")
    if args.health_report:
        path = _write_health_report(args.health_report, health.report())
        print(f"\nhealth report written to {path}")


def _export(args) -> None:
    from repro.eval.export import export_all

    paths = export_all(args.out)
    for path in paths:
        print(path)


def _trace(args) -> None:
    from repro.eval.reporting import span_summary, telemetry_summary
    from repro.telemetry.exporters import write_chrome_trace, write_metrics_csv
    from repro.telemetry.scenarios import SCENARIOS, run_scenario

    from repro.errors import ConfigurationError

    name = args.scenario or "seizure"
    if name not in SCENARIOS:
        known = "\n".join(
            f"  {s.name:10s} {s.description}" for s in SCENARIOS.values()
        )
        raise ConfigurationError(
            f"unknown scenario {name!r}; available:\n{known}"
        )
    telemetry = run_scenario(name, seed=args.seed)
    print(f"-- scenario {name!r} (seed {args.seed}), "
          f"simulated time {telemetry.clock.now_ms:.2f} ms\n")
    print(telemetry_summary(telemetry.registry))
    print()
    print(span_summary(telemetry.tracer))
    if args.export:
        path = write_chrome_trace(telemetry.tracer, args.export)
        print(f"\nChrome trace written to {path} "
              "(open in Perfetto / chrome://tracing)")
    if args.csv:
        path = write_metrics_csv(telemetry.registry, args.csv)
        print(f"metrics CSV written to {path}")


# -- shared argparse building ------------------------------------------------------


def _positive_float(text: str) -> float:
    """Parse a strictly positive, finite float (``--qps``, ``--power``)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number, got {text!r}"
        ) from None
    if not 0 < value < float("inf"):
        raise argparse.ArgumentTypeError(
            f"expected a positive finite number, got {text!r}"
        )
    return value


def _positive_int(text: str) -> int:
    """Parse a strictly positive int (``--nodes``, ``--tenants``, ...)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {text!r}"
        ) from None
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}"
        )
    return value


def _writable_path(text: str) -> str:
    """Reject report paths that cannot name a new or existing file.

    The parent directory must exist and the path must not itself be a
    directory.  Validated at parse time so a typo fails in milliseconds
    with usage, not after a multi-minute sweep has already run.
    """
    import pathlib

    path = pathlib.Path(text)
    if not path.parent.is_dir():
        raise argparse.ArgumentTypeError(
            f"directory {str(path.parent)!r} does not exist"
        )
    if not text or text.endswith(("/", ".")) or path.is_dir():
        raise argparse.ArgumentTypeError(
            f"expected a file path, got {text!r}"
        )
    return text


def _window_range(text: str) -> tuple[int, int]:
    """Parse a ``START:STOP`` window range for ``--range``."""
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(
            f"expected START:STOP, got {text!r}"
        )
    try:
        start, stop = int(parts[0]), int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"window range bounds must be integers, got {text!r}"
        ) from None
    return start, stop


def _opt_seed(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0,
                        help="deterministic run seed")


def _opt_export(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--export", type=_writable_path, default=None,
                        metavar="PATH",
                        help="write a Chrome trace-event JSON")


def _opt_csv(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--csv", type=_writable_path, default=None,
                        metavar="PATH",
                        help="write the metrics registry as CSV")


def _opt_health_report(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--health-report", type=_writable_path, default=None,
                        metavar="PATH",
                        help="write the SLO verdict + incident bundles "
                             "as JSON")


def _opt_nodes(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--nodes", type=_positive_int, default=11,
                        help="implant count")


def _opt_power(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--power", type=_positive_float, default=15.0,
                        help="per-node power budget (mW)")


def _opt_pairs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--pairs", type=_positive_int, default=300,
                        help="window pairs for hash-accuracy sweeps")


def _opt_packets(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--packets", type=_positive_int, default=400,
                        help="packets per BER point")


def _opt_reps(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--reps", type=_positive_int, default=500,
                        help="Monte-Carlo repetitions")


def _opt_query(parser: argparse.ArgumentParser) -> None:
    _opt_nodes(parser)
    parser.add_argument("--range", type=_window_range, default=None,
                        metavar="START:STOP",
                        help="window-index range to query")


def _opt_serve(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--qps", type=_positive_float, default=40.0,
                        help="offered load (queries/s)")
    parser.add_argument("--requests", type=_positive_int, default=64,
                        help="number of requests to offer")
    parser.add_argument("--queue", type=_positive_int, default=16,
                        help="admission queue bound")
    parser.add_argument("--serial", action="store_true",
                        help="disable coalescing")
    parser.add_argument("--deadline-ms", type=_positive_float, default=250.0,
                        help="relative request deadline (simulated ms)")
    parser.add_argument("--fault-plan", default=None,
                        choices=("none", "mild", "moderate", "severe",
                                 "partition"),
                        help="replay a fault-storm preset under the load "
                             "(enables retries/brownout; 'partition' also "
                             "attaches the quorum/epoch stack)")


def _opt_fabric(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tenants", type=_positive_int, default=8,
                        help="tenants sharing the fabric")
    parser.add_argument("--fleets", type=_positive_int, default=4,
                        help="independent patient fleets")
    parser.add_argument("--nodes", type=_positive_int, default=3,
                        help="implant count per fleet")
    parser.add_argument("--qps", type=_positive_float, default=4.0,
                        help="offered load per tenant (queries/s)")
    parser.add_argument("--requests", type=_positive_int, default=16,
                        help="requests offered per tenant")


def _opt_out(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default="results",
                        help="output directory")


@dataclass(frozen=True)
class _Command:
    """One subcommand: its handler plus the option groups it accepts."""

    handler: Callable
    help: str
    options: tuple[Callable, ...] = ()
    #: help text for the optional positional (None = no positional)
    scenario_help: str | None = None


#: every figure knob: what `all` accepts, since it runs every figure
_FIG_OPTIONS = (_opt_nodes, _opt_power, _opt_pairs, _opt_packets, _opt_reps)

_COMMANDS: dict[str, _Command] = {
    "table1": _Command(_table1, "PE catalog (Table 1)"),
    "table3": _Command(_table3, "application pipelines (Table 3)"),
    "fig8a": _Command(_fig8a, "architecture comparison",
                      (_opt_nodes, _opt_power)),
    "fig8b": _Command(_surfaces("fig8b"), "throughput vs power/nodes"),
    "fig8c": _Command(_surfaces("fig8c"), "application throughput surfaces"),
    "fig9a": _Command(_node_rows("fig9a"), "latency vs node count"),
    "fig9b": _Command(_node_rows("fig9b"), "throughput vs node count"),
    "fig10": _Command(_fig10, "query cost model"),
    "fig11": _Command(_fig11, "hash accuracy", (_opt_pairs,)),
    "fig12": _Command(_fig12, "network error rates", (_opt_packets,)),
    "fig13": _Command(_fig13, "radio design-space exploration",
                      (_opt_nodes,)),
    "fig14": _Command(_fig14, "hash parameter sweeps", (_opt_pairs,)),
    "fig15": _Command(_fig15, "delay Monte-Carlo", (_opt_reps,)),
    "fig15a": _Command(_fig15, "delay Monte-Carlo", (_opt_reps,)),
    "fig15b": _Command(_fig15, "delay Monte-Carlo", (_opt_reps,)),
    "resilience": _Command(_resilience, "ARQ/crash resilience sweeps",
                           (_opt_packets, _opt_nodes)),
    "sec62": _Command(_sec62, "local task throughput"),
    "sec63": _Command(_sec63, "application scalars"),
    "export": _Command(_export, "write every table/figure to disk",
                       (_opt_out,)),
    "trace": _Command(_trace, "run a scenario under telemetry",
                      (_opt_seed, _opt_export, _opt_csv),
                      scenario_help="scenario name (default: seizure)"),
    "recover": _Command(_recover, "crash + reboot + resync smoke run",
                        (_opt_seed, _opt_export, _opt_csv)),
    "query": _Command(_query, "Q1/Q2/Q3 over a live fleet",
                      (_opt_query, _opt_seed)),
    "serve": _Command(_serve, "open-loop load against the query server",
                      (_opt_serve, _opt_seed, _opt_csv, _opt_health_report)),
    "chaos": _Command(_chaos, "fault-storm sweep (or partition storm)",
                      (_opt_seed, _opt_csv, _opt_health_report),
                      scenario_help="'partition' runs the split-brain storm; "
                                    "no argument runs the three-level sweep"),
    "health": _Command(_health, "SLO verdicts + incident bundles",
                       (_opt_seed, _opt_health_report),
                       scenario_help="storm level (default: moderate)"),
    "fabric": _Command(_fabric, "multi-tenant fleet fabric run",
                       (_opt_fabric, _opt_seed, _opt_csv,
                        _opt_health_report)),
}

#: commands `all` runs (the quick, print-only figure/table family)
_ALL_EXCLUDES = frozenset({
    "fig15a", "fig15b", "export", "trace", "recover", "query", "serve",
    "chaos", "health", "fabric",
})


def _build_parser(name: str, command: _Command) -> argparse.ArgumentParser:
    """One subcommand parser from the shared option groups."""
    parser = argparse.ArgumentParser(
        prog=f"python -m repro {name}",
        description=command.help,
    )
    if command.scenario_help is not None:
        parser.add_argument("scenario", nargs="?", default=None,
                            help=command.scenario_help)
    for add_options in command.options:
        add_options(parser)
    return parser


def _top_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate SCALO's tables and figures.",
        epilog="Run 'python -m repro <target> --help' for per-command "
               "options.",
    )
    parser.add_argument("target", help="'list', 'all', or one of: "
                        + ", ".join(sorted(set(_COMMANDS))))
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    top = _top_parser()
    if not argv or argv[0] in ("-h", "--help"):
        if argv:
            top.print_help()
            return 0
        top.print_usage(sys.stderr)
        print(f"{top.prog}: error: the following arguments are required: "
              "target", file=sys.stderr)
        return 2
    target, rest = argv[0], argv[1:]

    if target == "list":
        for name in sorted(set(_COMMANDS)):
            print(name)
        return 0
    if target == "all":
        parser = argparse.ArgumentParser(prog="python -m repro all")
        for add_options in _FIG_OPTIONS:
            add_options(parser)
        args = parser.parse_args(rest)
        try:
            for name in sorted(set(_COMMANDS) - _ALL_EXCLUDES):
                print(f"\n===== {name} =====")
                _COMMANDS[name].handler(args)
        except ScaloError as exc:
            print(f"error: {exc}", file=sys.stderr)
            parser.print_usage(sys.stderr)
            return 2
        return 0

    command = _COMMANDS.get(target)
    if command is None:
        print(f"unknown target {target!r}; available commands:",
              file=sys.stderr)
        for name in ("list", "all", *sorted(set(_COMMANDS))):
            print(f"  {name}", file=sys.stderr)
        return 2
    parser = _build_parser(target, command)
    args = parser.parse_args(rest)
    try:
        command.handler(args)
    except ScaloError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
