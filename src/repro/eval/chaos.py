r"""Chaos evaluation: serving availability under graded fault storms.

SCALO's query path is safety-adjacent — seizure detection has hard
deadlines — so the serving layer must keep answering while implants
crash, radios go dark, and NVM pages rot.  This module sweeps a seeded
open-loop load through :func:`~repro.serving.loadgen.serve_session` under three
:class:`StormLevel`\ s of :class:`~repro.faults.plan.FaultPlan`
intensity with the full reliability stack enabled (client retries,
server-side coverage-SLA re-execution, per-node circuit breakers,
brownout tiers) and reports the numbers the chaos gates care about:

* **availability** — unique requests answered / offered, with shed
  offers retried client-side until the policy is exhausted;
* **coverage-SLA satisfaction** — every request carries
  ``min_coverage``; answers below it are re-executed server-side once
  the health layer sees the fleet recover, and only each request's
  *final* answer counts;
* **p99 latency** — over final answers, in simulated milliseconds.

Everything is a pure function of the seed: the same sweep replays
byte-identically with or without a live telemetry handle — the serving
determinism contract extended to the chaos path.  The gates themselves
(mild ≥ 99% availability, moderate 0 final SLA violations, severe p99
bound) live here so the ``chaos`` CLI, the telemetry scenario, and
``benchmarks/test_chaos.py`` (which writes ``BENCH_chaos.json``)
enforce the same numbers.

A fourth storm sits apart from the sweep: the :data:`PARTITION` storm
(``python -m repro chaos partition``) splits the radio fabric itself —
asymmetric link-level partitions over crashes and outages — and gates
the *coordination* layer: at most one coordinator writes accepted
checkpoints per round, epochs never move backwards, no query sequence
number is broadcast twice, every stale-epoch write is fenced, and the
majority side keeps availability ≥ 95%.  Its audit comes from the
:class:`~repro.recovery.failover.FailoverManager`'s deterministic counters, and
``benchmarks/test_partition.py`` writes it to ``BENCH_partition.json``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.faults.plan import FaultPlan
from repro.serving.loadgen import LoadGenConfig, ServeReport, serve_session
from repro.serving.reliability import BreakerConfig, RetryPolicy
from repro.serving.server import ServerConfig
from repro.telemetry import NULL_TELEMETRY, TelemetryLike
from repro.telemetry.health.engine import HealthEngine

# -- storm levels --------------------------------------------------------------


@dataclass(frozen=True)
class StormLevel:
    """One fault-storm intensity, expressed as FaultPlan.generate rates."""

    name: str
    n_crashes: int = 0
    reboot_after: int | None = None
    n_outages: int = 0
    outage_rounds: int = 3
    n_bit_rot: int = 0
    rot_bits: int = 1
    n_drift_spikes: int = 0
    n_partitions: int = 0
    partition_rounds: int = 6

    def plan(self, n_nodes: int, n_rounds: int, seed: int) -> FaultPlan:
        """Draw this level's deterministic plan for one fleet/horizon."""
        return FaultPlan.generate(
            n_nodes,
            n_rounds,
            seed,
            n_crashes=self.n_crashes,
            reboot_after=self.reboot_after,
            n_outages=self.n_outages,
            outage_rounds=self.outage_rounds,
            n_bit_rot=self.n_bit_rot,
            rot_bits=self.rot_bits,
            n_drift_spikes=self.n_drift_spikes,
            n_partitions=self.n_partitions,
            partition_rounds=self.partition_rounds,
        )


#: One crash that reboots: the storm any fleet must shrug off.
MILD = StormLevel(name="mild", n_crashes=1, reboot_after=4)

#: Several crashes (all rebooting), a short radio outage, and
#: single-bit NVM rot (correctable by ECC on the next read/scrub) —
#: coverage dips but the fleet fully recovers, so SLA re-execution must
#: converge to zero final violations.
MODERATE = StormLevel(
    name="moderate",
    n_crashes=2,
    reboot_after=4,
    n_outages=1,
    outage_rounds=3,
    n_bit_rot=2,
    rot_bits=1,
)

#: Heavy weather: more crashes with slower reboots, overlapping
#: outages, multi-bit rot (may exceed ECC), and clock-drift spikes.
#: Only availability and the documented p99 bound are gated here.
SEVERE = StormLevel(
    name="severe",
    n_crashes=3,
    reboot_after=8,
    n_outages=2,
    outage_rounds=5,
    n_bit_rot=3,
    rot_bits=8,
    n_drift_spikes=2,
)

#: The split-brain storm: four link-level partitions (asymmetric modes
#: drawn per split) over rebooting crashes and radio outages.  The
#: crashes matter — with an odd fleet a lone cut always leaves one side
#: holding a strict majority, so only crash+split combinations exercise
#: the stepdown / quorum-lost / cache-only path.  Calibrated against
#: :func:`partition_config` at seed 0: the storm deposes the
#: coordinator into a minority (8 fenced stale writes, 2 epoch
#: reconciliations), forces one stepdown (quorum lost and regained),
#: and still serves every request.
PARTITION = StormLevel(
    name="partition",
    n_crashes=2,
    reboot_after=4,
    n_outages=2,
    outage_rounds=3,
    n_partitions=4,
    partition_rounds=10,
)

STORM_LEVELS: tuple[StormLevel, ...] = (MILD, MODERATE, SEVERE)

#: Presets accepted by ``python -m repro serve --fault-plan``.
FAULT_PRESETS: dict[str, StormLevel | None] = {
    "none": None,
    "mild": MILD,
    "moderate": MODERATE,
    "severe": SEVERE,
    "partition": PARTITION,
}

# -- gates ---------------------------------------------------------------------

#: mild storm: unique requests answered / offered
MILD_MIN_AVAILABILITY = 0.99
#: moderate storm: final coverage-SLA violations after re-execution
MODERATE_MAX_FINAL_SLA_VIOLATIONS = 0
#: severe storm: p99 latency bound over final answers (simulated ms).
#: Measured ≈ 418 ms at the default seed; the bound leaves ~2.4x
#: headroom for storm-level retuning without masking a regression.
SEVERE_P99_BOUND_MS = 1000.0
#: mild storm, SLO verdict: a fleet must ride out one rebooting crash
#: without waking anyone (its peak coverage burn is ~2.9x budget,
#: under the 4.5x fast-burn threshold — see DEFAULT_SERVING_SLOS)
MILD_MAX_ALERTS = 0
#: moderate storm, SLO verdict: the second coverage excursion (~6.7x
#: budget over the fast window) must fire a fast-burn alert and
#: snapshot an incident bundle
MODERATE_MIN_FAST_BURN_ALERTS = 1
#: partition storm: unique requests answered / offered — the majority
#: side must keep serving through both splits and the crash
PARTITION_MIN_AVAILABILITY = 0.95


# -- the sweep -----------------------------------------------------------------

#: electrodes per implant in every chaos fleet
ELECTRODES = 4
#: offered load of every chaos run (open loop, QPS)
OFFERED_QPS = 40.0
#: relative deadline stamped on every chaos request (ms)
DEADLINE_MS = 300.0
#: coverage SLA on every request; one dead node out of six violates
MIN_COVERAGE = 0.9
#: TDMA rounds a chaos fault plan spans (one per :data:`~repro.units.ROUND_MS`)
N_ROUNDS = 64


@dataclass(frozen=True)
class ChaosConfig:
    """One chaos sweep: fleet size, load size and seed."""

    n_nodes: int = 6
    n_windows: int = 4
    n_requests: int = 96
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_nodes < 2:
            raise ConfigurationError("chaos needs at least two nodes")
        if self.n_requests < 1:
            raise ConfigurationError("need at least one request")

    def load(self) -> LoadGenConfig:
        return LoadGenConfig(
            n_requests=self.n_requests,
            offered_qps=OFFERED_QPS,
            seed=self.seed,
            deadline_ms=DEADLINE_MS,
            min_coverage=MIN_COVERAGE,
        )

    def server_config(self) -> ServerConfig:
        """The chaos-hardened server: every reliability knob enabled."""
        return ServerConfig(
            max_queue=24,
            breaker=BreakerConfig(failure_threshold=2, open_ms=300.0),
            brownout=True,
            retry=RetryPolicy(max_attempts=3, base_ms=40.0, cap_ms=400.0,
                              seed=self.seed),
            default_min_coverage=MIN_COVERAGE,
        )

    def client_retry(self) -> RetryPolicy:
        return RetryPolicy(
            max_attempts=4, base_ms=25.0, cap_ms=500.0, seed=self.seed + 1
        )


@dataclass(frozen=True)
class PartitionInvariants:
    """The coordination audit of one partition storm.

    Every number is read off the
    :class:`~repro.recovery.failover.FailoverManager` after the run —
    its claim log and its ``counts`` table, which fills whatever the
    handle — so the split-brain gates hold with or without a live
    telemetry handle.
    """

    #: most distinct coordinators that wrote an accepted checkpoint in
    #: any single TDMA round (the split-brain invariant: must be 1)
    max_coordinators_per_round: int
    #: accepted checkpoint epochs never went backwards
    epochs_monotonic: bool
    #: query sequence numbers broadcast more than once
    duplicate_query_seqs: int
    #: stale-epoch checkpoint writes rejected by the fence
    fencing_rejected: int
    #: stale-epoch writes that slipped past the fence (must be 0)
    fencing_accepted_stale: int
    #: the highest epoch installed
    epoch: int
    failovers: int
    stepdowns: int
    #: stale claimants that re-adopted the current epoch after a heal
    reconciliations: int
    #: elections decided from ground truth because no health view was
    #: attached (must be 0 under the partition wiring)
    blind_fallbacks: int

    def row(self) -> dict:
        return {
            "max_coordinators_per_round": self.max_coordinators_per_round,
            "epochs_monotonic": self.epochs_monotonic,
            "duplicate_query_seqs": self.duplicate_query_seqs,
            "fencing_rejected": self.fencing_rejected,
            "fencing_accepted_stale": self.fencing_accepted_stale,
            "epoch": self.epoch,
            "failovers": self.failovers,
            "stepdowns": self.stepdowns,
            "reconciliations": self.reconciliations,
            "blind_fallbacks": self.blind_fallbacks,
        }


def _audit_coordination(manager) -> PartitionInvariants:
    """Distill one manager's claim log and counts into the invariants."""

    def count(name: str) -> int:
        return int(manager.counts.get((name, ()), 0.0))

    per_round: dict[int, set[int]] = {}
    for round_index, coordinator, _epoch in manager.claim_log:
        per_round.setdefault(round_index, set()).add(coordinator)
    epochs = [epoch for _, _, epoch in manager.claim_log]
    return PartitionInvariants(
        max_coordinators_per_round=max(
            (len(claimants) for claimants in per_round.values()), default=0
        ),
        epochs_monotonic=all(a <= b for a, b in zip(epochs, epochs[1:])),
        duplicate_query_seqs=count("recovery.duplicate_query_seq"),
        fencing_rejected=count("recovery.fencing.rejected"),
        fencing_accepted_stale=count("recovery.fencing.accepted_stale"),
        epoch=manager.epoch,
        failovers=count("recovery.failovers"),
        stepdowns=count("recovery.stepdowns"),
        reconciliations=count("recovery.epoch_reconciled"),
        blind_fallbacks=count("recovery.blind_fallback"),
    )


@dataclass
class StormResult:
    """One storm level's run: the plan, the report, the breaker story."""

    level: StormLevel
    plan: FaultPlan
    report: ServeReport
    #: every breaker transition as ``(node, now_ms, from, to)``
    breaker_transitions: list[tuple[int, float, str, str]] = field(
        default_factory=list
    )
    #: :meth:`HealthEngine.report` for this storm (None without live
    #: telemetry — the health engine needs a registry to observe)
    health: dict | None = None
    #: the coordination audit, when the plan scheduled partitions and
    #: the quorum/epoch stack was therefore attached
    coordination: PartitionInvariants | None = None

    def row(self) -> dict:
        """The BENCH/table view of this storm level."""
        r = self.report
        return {
            "level": self.level.name,
            "events": len(self.plan.events),
            "offered": r.n_offered,
            "completed": r.completed,
            "shed": r.shed,
            "availability": r.availability,
            "client_retries": r.client_retries,
            "server_retries": r.server_retries,
            "sla_violations_initial": r.sla_violations_initial,
            "sla_violations_final": r.sla_violations_final,
            "deadline_misses": r.deadline_misses,
            "degraded_responses": r.degraded_responses,
            "breaker_opened": r.breaker_opened,
            "breaker_half_open": r.breaker_half_open,
            "breaker_closed": r.breaker_closed,
            "brownout_waves": {
                str(tier): count for tier, count in r.brownout_waves.items()
            },
            "brownout_rejections": r.brownout_rejections,
            "timeouts_charged": r.timeouts_charged,
            "p50_latency_ms": r.p50_latency_ms,
            "p99_latency_ms": r.p99_latency_ms,
            "mean_latency_ms": r.mean_latency_ms,
        }


def run_storm(
    level: StormLevel,
    config: ChaosConfig | None = None,
    telemetry: TelemetryLike = NULL_TELEMETRY,
    health: HealthEngine | None = None,
) -> StormResult:
    """Serve one seeded load through one storm level's fault plan.

    With live telemetry a :class:`HealthEngine` (a fresh one per storm
    unless the caller passes its own) watches the run: its SLO burn
    rates, anomalies, and incident bundles land in the result's
    ``health`` report, and its flight recorder collects the storm's
    breaker/brownout/shed evidence.  The engine is observational, so
    the response log stays byte-identical either way.
    """
    config = config if config is not None else ChaosConfig()
    plan = level.plan(config.n_nodes, N_ROUNDS, config.seed)
    if health is None and telemetry.enabled:
        health = HealthEngine(telemetry)
    server, report = serve_session(
        n_nodes=config.n_nodes,
        electrodes=ELECTRODES,
        n_windows=config.n_windows,
        seed=config.seed,
        load=config.load(),
        server_config=config.server_config(),
        telemetry=telemetry,
        fault_plan=plan,
        client_retry=config.client_retry(),
        health=health,
    )
    return StormResult(
        level=level, plan=plan, report=report,
        breaker_transitions=server.breakers.transition_log(),
        health=health.report() if health is not None else None,
        coordination=(
            _audit_coordination(server.failover)
            if server.failover is not None else None
        ),
    )


@dataclass
class ChaosReport:
    """The full three-level sweep plus its gate verdicts."""

    config: ChaosConfig
    results: list[StormResult]

    def result(self, name: str) -> StormResult:
        for result in self.results:
            if result.level.name == name:
                return result
        raise KeyError(f"no storm level named {name!r}")

    def gate_failures(self) -> list[str]:
        """Every gate the sweep missed (empty = all gates pass)."""
        failures = []
        mild = self.result("mild").report
        if mild.availability < MILD_MIN_AVAILABILITY:
            failures.append(
                f"mild availability {mild.availability:.4f} < "
                f"{MILD_MIN_AVAILABILITY}"
            )
        moderate = self.result("moderate").report
        if moderate.sla_violations_final > MODERATE_MAX_FINAL_SLA_VIOLATIONS:
            failures.append(
                f"moderate final SLA violations "
                f"{moderate.sla_violations_final} > "
                f"{MODERATE_MAX_FINAL_SLA_VIOLATIONS}"
            )
        severe = self.result("severe").report
        if severe.p99_latency_ms > SEVERE_P99_BOUND_MS:
            failures.append(
                f"severe p99 {severe.p99_latency_ms:.1f} ms > "
                f"{SEVERE_P99_BOUND_MS} ms"
            )
        failures.extend(self.slo_gate_failures())
        return failures

    def slo_gate_failures(self) -> list[str]:
        """The chaos gates re-expressed as SLO verdicts.

        Evaluated only when the sweep ran with live telemetry (the
        health engine needs a registry to observe): the mild storm must
        fire zero burn-rate alerts, and the moderate storm's coverage
        excursion must fire a fast-burn alert with an incident bundle
        capturing the evidence.
        """
        failures = []
        mild = self.result("mild").health
        if mild is not None and len(mild["alerts"]) > MILD_MAX_ALERTS:
            failures.append(
                f"mild storm fired {len(mild['alerts'])} alerts > "
                f"{MILD_MAX_ALERTS} (a fleet must ride out one "
                "rebooting crash)"
            )
        moderate = self.result("moderate").health
        if moderate is not None:
            fast = [a for a in moderate["alerts"] if a["severity"] == "fast"]
            if len(fast) < MODERATE_MIN_FAST_BURN_ALERTS:
                failures.append(
                    "moderate storm fired no fast-burn alert "
                    "(the second coverage excursion must page)"
                )
            if len(moderate["incidents"]) < len(moderate["alerts"]):
                failures.append(
                    "moderate storm alerts missing incident bundles"
                )
        return failures

    @property
    def passed(self) -> bool:
        return not self.gate_failures()

    def gates(self) -> dict:
        return {
            "mild_availability_min": MILD_MIN_AVAILABILITY,
            "moderate_final_sla_violations_max": (
                MODERATE_MAX_FINAL_SLA_VIOLATIONS
            ),
            "severe_p99_max_ms": SEVERE_P99_BOUND_MS,
            "mild_alerts_max": MILD_MAX_ALERTS,
            "moderate_fast_burn_alerts_min": MODERATE_MIN_FAST_BURN_ALERTS,
        }

    def health_report(self) -> dict:
        """The ``--health-report`` JSON: verdicts + per-storm evidence."""
        storms = {}
        for result in self.results:
            entry: dict = {"row": result.row()}
            if result.health is not None:
                entry["health"] = result.health
            storms[result.level.name] = entry
        return {
            "gates": self.gates(),
            "gate_failures": self.gate_failures(),
            "passed": self.passed,
            "storms": storms,
        }

    def table(self) -> list[str]:
        """Fixed-width summary lines for the CLI and the benchmark."""
        lines = [
            f"{'level':>9s}{'events':>8s}{'avail':>8s}{'c-retry':>8s}"
            f"{'s-retry':>8s}{'sla0':>6s}{'slaF':>6s}{'brk-o':>7s}"
            f"{'p99':>10s}"
        ]
        for result in self.results:
            r = result.report
            lines.append(
                f"{result.level.name:>9s}{len(result.plan.events):8d}"
                f"{r.availability:8.4f}{r.client_retries:8d}"
                f"{r.server_retries:8d}{r.sla_violations_initial:6d}"
                f"{r.sla_violations_final:6d}{r.breaker_opened:7d}"
                f"{r.p99_latency_ms:8.1f}ms"
            )
        for failure in self.gate_failures():
            lines.append(f"GATE FAILED: {failure}")
        if self.passed:
            lines.append("all chaos gates pass")
        return lines


def chaos_sweep(
    config: ChaosConfig | None = None,
    telemetry: TelemetryLike = NULL_TELEMETRY,
    levels: tuple[StormLevel, ...] = STORM_LEVELS,
) -> ChaosReport:
    """Run every storm level against the same seeded fleet and load."""
    config = config if config is not None else ChaosConfig()
    return ChaosReport(
        config=config,
        results=[run_storm(level, config, telemetry) for level in levels],
    )


# -- the partition storm -------------------------------------------------------


def partition_config(seed: int = 0) -> ChaosConfig:
    """The partition storm's fleet: seven implants.

    An odd fleet guarantees every single-cut split leaves one side with
    a strict majority (quorum 4 of 7), so the majority side can always
    elect and the minority can never — the structural half of the
    split-brain invariant the gates then verify end to end.
    """
    return ChaosConfig(n_nodes=7, seed=seed)


@dataclass
class PartitionStormReport:
    """One partition storm plus its split-brain gate verdicts."""

    config: ChaosConfig
    result: StormResult

    @property
    def invariants(self) -> PartitionInvariants:
        assert self.result.coordination is not None
        return self.result.coordination

    def gate_failures(self) -> list[str]:
        """Every split-brain gate the storm missed (empty = all pass)."""
        failures = []
        inv = self.invariants
        report = self.result.report
        if report.availability < PARTITION_MIN_AVAILABILITY:
            failures.append(
                f"availability {report.availability:.4f} < "
                f"{PARTITION_MIN_AVAILABILITY} (majority side must serve)"
            )
        if inv.max_coordinators_per_round > 1:
            failures.append(
                f"{inv.max_coordinators_per_round} coordinators wrote "
                "accepted checkpoints in one round (split brain)"
            )
        if not inv.epochs_monotonic:
            failures.append("accepted checkpoint epochs went backwards")
        if inv.duplicate_query_seqs > 0:
            failures.append(
                f"{inv.duplicate_query_seqs} query seqs broadcast twice"
            )
        if inv.fencing_accepted_stale > 0:
            failures.append(
                f"{inv.fencing_accepted_stale} stale-epoch writes "
                "slipped past the fence"
            )
        if inv.fencing_rejected < 1:
            failures.append(
                "fence never exercised: no stale-epoch write was rejected "
                "(the storm must depose a coordinator that keeps writing)"
            )
        if inv.blind_fallbacks > 0:
            failures.append(
                f"{inv.blind_fallbacks} elections fell back to ground "
                "truth (belief wiring missing)"
            )
        return failures

    @property
    def passed(self) -> bool:
        return not self.gate_failures()

    def gates(self) -> dict:
        return {
            "partition_availability_min": PARTITION_MIN_AVAILABILITY,
            "coordinators_per_round_max": 1,
            "duplicate_query_seqs_max": 0,
            "fencing_accepted_stale_max": 0,
            "fencing_rejected_min": 1,
            "blind_fallbacks_max": 0,
        }

    def row(self) -> dict:
        """The BENCH view: serving row + the coordination audit."""
        row = self.result.row()
        row["coordination"] = self.invariants.row()
        return row

    def health_report(self) -> dict:
        """The ``--health-report`` JSON: verdicts + storm evidence."""
        entry: dict = {"row": self.row()}
        if self.result.health is not None:
            entry["health"] = self.result.health
        return {
            "gates": self.gates(),
            "gate_failures": self.gate_failures(),
            "passed": self.passed,
            "storms": {self.result.level.name: entry},
        }

    def table(self) -> list[str]:
        """Fixed-width summary lines for the CLI and the benchmark."""
        r = self.result.report
        inv = self.invariants
        lines = [
            f"{'level':>9s}{'events':>8s}{'avail':>8s}{'epoch':>7s}"
            f"{'fails':>7s}{'steps':>7s}{'fenced':>8s}{'recon':>7s}"
            f"{'p99':>10s}",
            f"{self.result.level.name:>9s}{len(self.result.plan.events):8d}"
            f"{r.availability:8.4f}{inv.epoch:7d}{inv.failovers:7d}"
            f"{inv.stepdowns:7d}{inv.fencing_rejected:8d}"
            f"{inv.reconciliations:7d}{r.p99_latency_ms:8.1f}ms",
        ]
        for failure in self.gate_failures():
            lines.append(f"GATE FAILED: {failure}")
        if self.passed:
            lines.append("all split-brain gates pass")
        return lines


def run_partition_storm(
    config: ChaosConfig | None = None,
    telemetry: TelemetryLike = NULL_TELEMETRY,
    health: HealthEngine | None = None,
    level: StormLevel = PARTITION,
) -> PartitionStormReport:
    """Run the split-brain storm and audit the coordination layer.

    Same determinism contract as :func:`run_storm` — the response log
    and every invariant counter replay byte-identically per seed — with
    the quorum/epoch stack attached (the plan schedules partitions, so
    :func:`~repro.serving.loadgen.serve_session` wires per-node belief views
    and the epoch-fenced failover manager automatically).
    """
    config = config if config is not None else partition_config()
    if level.n_partitions < 1:
        raise ConfigurationError(
            f"storm level {level.name!r} schedules no partitions; the "
            "split-brain gates need at least one"
        )
    result = run_storm(level, config, telemetry, health)
    assert result.coordination is not None
    return PartitionStormReport(config=config, result=result)
