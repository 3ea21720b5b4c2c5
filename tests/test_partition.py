"""Partition-tolerant coordination: link-level splits, per-node belief,
quorum-gated epoch-fenced failover, and quorum-aware serving."""

import numpy as np
import pytest

from repro.apps.queries import QuerySpec
from repro.core.system import ScaloSystem
from repro.errors import ConfigurationError, NodeFailure
from repro.eval.chaos import (
    _audit_coordination,
    partition_config,
    run_partition_storm,
)
from repro.faults import health as health_module
from repro.faults.health import FleetBelief, HealthMonitor
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.network.network import WirelessNetwork
from repro.network.packet import Packet, PayloadKind
from repro.network.partition import PartitionMatrix
from repro.recovery import failover
from repro.recovery.failover import FailoverManager
from repro.serving.loadgen import LoadGenConfig, serve_session
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.units import WINDOW_SAMPLES


def _system(n_nodes=7, electrodes=2, seed=0, telemetry=NULL_TELEMETRY):
    return ScaloSystem(n_nodes=n_nodes, electrodes_per_node=electrodes,
                       seed=seed, telemetry=telemetry)


def _count(manager, name):
    """One cell of the manager's ``recovery.*`` table (0 if never booked)."""
    return manager.counts.get((name, ()), 0.0)


def _ingest_rounds(system, n_rounds, seed=0):
    rng = np.random.default_rng(seed)
    for _ in range(n_rounds):
        system.ingest(
            rng.normal(
                size=(system.n_nodes, system.electrodes_per_node,
                      WINDOW_SAMPLES)
            )
        )


class TestPartitionMatrix:
    def test_symmetric_split_blocks_both_directions(self):
        matrix = PartitionMatrix.split(5, cut=1, mode="both")
        # A = {0, 1}, B = {2, 3, 4}
        assert not matrix.reachable(0, 3) and not matrix.reachable(3, 0)
        assert matrix.reachable(0, 1) and matrix.reachable(2, 4)
        assert matrix.symmetric()

    def test_asymmetric_split_blocks_one_direction(self):
        matrix = PartitionMatrix.split(4, cut=1, mode="a_to_b")
        # A-side frames cannot reach B; B-side frames still reach A
        assert not matrix.reachable(0, 2) and matrix.reachable(2, 0)
        assert not matrix.symmetric()

    def test_self_reachability_always_holds(self):
        matrix = PartitionMatrix.split(3, cut=0, mode="both")
        assert all(matrix.reachable(n, n) for n in range(3))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PartitionMatrix.split(4, cut=3, mode="both")  # B side empty
        with pytest.raises(ConfigurationError):
            PartitionMatrix.split(4, cut=1, mode="sideways")
        with pytest.raises(ConfigurationError):
            PartitionMatrix(n_nodes=3, blocked=frozenset({(0, 5)}))

    def test_describe_is_deterministic(self):
        a = PartitionMatrix.split(6, cut=2, mode="b_to_a")
        b = PartitionMatrix.split(6, cut=2, mode="b_to_a")
        assert a.describe() == b.describe()
        assert "symmetric=0" in a.describe()


class TestNetworkPartition:
    def _network(self):
        network = WirelessNetwork(telemetry=Telemetry())
        inboxes = {n: [] for n in range(4)}
        for node, inbox in inboxes.items():
            network.register(node, inbox.append)
        return network, inboxes

    def test_partition_drops_cross_cut_frames_with_distinct_stat(self):
        network, inboxes = self._network()
        network.set_partition(PartitionMatrix.split(4, cut=1, mode="both"))
        network.send(Packet.build(0, 3, PayloadKind.HASHES, bytes(8), seq=0))
        network.send(Packet.build(0, 1, PayloadKind.HASHES, bytes(8), seq=1))
        assert network.telemetry.registry.counter(
            "network.dropped", reason="partition"
        ) == 1
        assert [p.header.seq for p in inboxes[1]] == [1]
        assert inboxes[3] == []

    def test_asymmetric_partition_is_one_way(self):
        network, inboxes = self._network()
        network.set_partition(PartitionMatrix.split(4, cut=1, mode="a_to_b"))
        network.send(Packet.build(0, 2, PayloadKind.HASHES, bytes(8), seq=0))
        network.send(Packet.build(2, 0, PayloadKind.HASHES, bytes(8), seq=1))
        assert inboxes[2] == []  # A -> B blocked
        assert [p.header.seq for p in inboxes[0]] == [1]  # B -> A clear
        assert network.telemetry.registry.counter(
            "network.dropped", reason="partition"
        ) == 1

    def test_clear_partition_restores_delivery(self):
        network, inboxes = self._network()
        network.set_partition(PartitionMatrix.split(4, cut=0, mode="both"))
        assert not network.can_reach(0, 3)
        network.clear_partition()
        assert network.can_reach(0, 3)
        network.send(Packet.build(0, 3, PayloadKind.HASHES, bytes(8), seq=0))
        assert len(inboxes[3]) == 1


class TestPartitionPlan:
    def test_generation_is_deterministic(self):
        kwargs = dict(n_partitions=3, partition_rounds=8)
        a = FaultPlan.generate(7, 64, seed=5, **kwargs)
        b = FaultPlan.generate(7, 64, seed=5, **kwargs)
        assert a.events == b.events
        assert a.event_log() == b.event_log()
        assert a.has_partitions

    def test_splits_pair_start_with_heal(self):
        plan = FaultPlan.generate(7, 64, seed=3, n_partitions=2,
                                  partition_rounds=6)
        starts = [e for e in plan.events
                  if e.kind is FaultKind.PARTITION_START]
        heals = [e for e in plan.events
                 if e.kind is FaultKind.PARTITION_HEAL]
        assert len(starts) == 2
        assert len(heals) == 2
        for start, heal in zip(starts, heals):
            assert heal.round > start.round

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(n_nodes=4, n_rounds=10, events=[
                FaultEvent(0, 3, FaultKind.PARTITION_START)  # B side empty
            ])
        with pytest.raises(ConfigurationError):
            FaultPlan(n_nodes=4, n_rounds=10, events=[
                FaultEvent(0, 1, FaultKind.PARTITION_START, magnitude=7.0)
            ])
        with pytest.raises(ConfigurationError):
            FaultPlan.generate(1, 64, seed=0, n_partitions=1)

    def test_partition_free_plans_unchanged_by_new_knobs(self):
        # the partition knobs default off: pre-existing plans must draw
        # the exact same events (the calibrated storms depend on it)
        a = FaultPlan.generate(6, 64, seed=0, n_crashes=2, n_outages=1)
        b = FaultPlan.generate(6, 64, seed=0, n_crashes=2, n_outages=1,
                               n_partitions=0)
        assert a.events == b.events
        assert not a.has_partitions


class TestFleetBelief:
    def test_views_diverge_across_a_split(self):
        system = _system(n_nodes=5)
        plan = FaultPlan(n_nodes=5, n_rounds=12, events=[
            FaultEvent(2, 1, FaultKind.PARTITION_START),  # {0,1} | {2,3,4}
        ])
        injector = FaultInjector(system, plan)
        for _ in range(12):
            injector.step()
        belief = injector.belief
        # A-side view: B dead; B-side view: A dead — and vice versa
        assert belief.view(0).alive_nodes == [0, 1]
        assert belief.view(3).alive_nodes == [2, 3, 4]

    def test_asymmetric_cut_still_breaks_round_trips(self):
        # a_to_b blocks only A->B frames, but the probe *ack* cannot
        # return, so both sides lose each other (symmetric closure)
        system = _system(n_nodes=5)
        plan = FaultPlan(n_nodes=5, n_rounds=12, events=[
            FaultEvent(2, 1, FaultKind.PARTITION_START, magnitude=1.0),
        ])
        injector = FaultInjector(system, plan)
        for _ in range(12):
            injector.step()
        assert injector.belief.view(0).alive_nodes == [0, 1]
        assert injector.belief.view(2).alive_nodes == [2, 3, 4]

    def test_tick_reports_newly_dead_per_observer(self, monkeypatch):
        monkeypatch.setattr(health_module, "MISS_THRESHOLD", 2)
        belief = FleetBelief(3)
        declared = {obs: [] for obs in range(3)}
        for r in range(3):
            for obs in range(3):
                belief.heartbeat(obs, obs, r)
                for sender in range(3):
                    if sender != obs and sender != 2:
                        belief.heartbeat(obs, sender, r)
            for obs, newly in belief.tick(r).items():
                declared[obs].extend(newly)
        assert 2 in declared[0] and 2 in declared[1]
        assert not belief.view(0).is_alive(2)
        assert belief.view(2).is_alive(2)  # self-heartbeat keeps it up

    def test_view_rejects_unknown_node(self):
        with pytest.raises(ConfigurationError):
            FleetBelief(3).view(7)


class TestQuorumFailover:
    def _run(self, system, plan):
        injector = FaultInjector(system, plan)
        manager = system.attach_failover(views=injector.belief)
        injector.failover = manager
        for _ in range(plan.n_rounds):
            injector.step()
        return injector, manager

    def test_split_deposes_minority_coordinator_and_heals(self):
        system = _system()
        plan = FaultPlan(n_nodes=7, n_rounds=30, events=[
            # {0,1,2} | {3,4,5,6}: the majority side deposes node 0
            FaultEvent(5, 2, FaultKind.PARTITION_START, magnitude=1.0),
            FaultEvent(20, 0, FaultKind.PARTITION_HEAL),
        ])
        _, manager = self._run(system, plan)
        # initial election (1) -> majority side elects 3 (2) -> heal
        # re-elects 0 (3); the deposed coordinator's stale writes all
        # bounced off the fence, then reconciled after the heal
        assert manager.coordinator == 0
        assert manager.epoch == 3
        assert [e.new_coordinator for e in manager.history] == [3, 0]
        assert _count(manager, "recovery.fencing.rejected") > 0
        assert _count(manager, "recovery.fencing.accepted_stale") == 0
        assert _count(manager, "recovery.epoch_reconciled") == 1
        assert _count(manager, "recovery.duplicate_query_seq") == 0
        assert any("fence rejected" in line for line in manager.log)

    def test_at_most_one_coordinator_per_round(self):
        system = _system()
        plan = FaultPlan(n_nodes=7, n_rounds=30, events=[
            FaultEvent(5, 2, FaultKind.PARTITION_START, magnitude=2.0),
            FaultEvent(18, 0, FaultKind.PARTITION_HEAL),
        ])
        _, manager = self._run(system, plan)
        per_round = {}
        for round_index, coordinator, _epoch in manager.claim_log:
            per_round.setdefault(round_index, set()).add(coordinator)
        assert all(len(claimants) == 1 for claimants in per_round.values())
        epochs = [epoch for _, _, epoch in manager.claim_log]
        assert epochs == sorted(epochs)

    def test_no_quorum_anywhere_steps_down(self):
        system = _system()
        plan = FaultPlan(n_nodes=7, n_rounds=14, events=[
            FaultEvent(1, 6, FaultKind.NODE_CRASH),
            # {0,1,2} | {3,4,5}+dead 6: neither side reaches quorum 4
            FaultEvent(5, 2, FaultKind.PARTITION_START),
        ])
        _, manager = self._run(system, plan)
        assert manager.coordinator is None
        assert _count(manager, "recovery.stepdowns") == 1
        assert any("steps down" in line for line in manager.log)
        # a coordinator-less fleet refuses distributed queries outright
        _ingest_rounds(system, 1)
        with pytest.raises(NodeFailure, match="no quorum"):
            system.query_distributed(
                QuerySpec(kind="q3", time_range_ms=50.0), (0, 1)
            )

    def test_heal_after_quorum_loss_recovers_without_split_brain(self):
        system = _system()
        plan = FaultPlan(n_nodes=7, n_rounds=30, events=[
            FaultEvent(1, 6, FaultKind.NODE_CRASH),
            FaultEvent(5, 2, FaultKind.PARTITION_START),
            FaultEvent(18, 0, FaultKind.PARTITION_HEAL),
        ])
        _, manager = self._run(system, plan)
        assert manager.coordinator == 0
        assert _count(manager, "recovery.stepdowns") == 1
        assert _count(manager, "recovery.fencing.accepted_stale") == 0
        assert _count(manager, "recovery.duplicate_query_seq") == 0
        # queries work again after the heal
        _ingest_rounds(system, 1)
        result = system.query_distributed(
            QuerySpec(kind="q3", time_range_ms=50.0), (0, 1)
        )
        assert result.coverage > 0

    def test_stale_epoch_query_broadcast_is_discarded(self):
        system = _system()
        plan = FaultPlan(n_nodes=7, n_rounds=30, events=[
            FaultEvent(5, 2, FaultKind.PARTITION_START, magnitude=1.0),
            FaultEvent(20, 0, FaultKind.PARTITION_HEAL),
        ])
        injector = FaultInjector(system, plan)
        manager = system.attach_failover(views=injector.belief)
        injector.failover = manager
        _ingest_rounds(system, 1)
        for _ in range(12):  # mid-split: node 3 coordinates at epoch 2
            injector.step()
        assert (manager.coordinator, manager.epoch) == (3, 2)
        # a query succeeds under the new coordinator at the new epoch
        result = system.query_distributed(
            QuerySpec(kind="q3", time_range_ms=50.0), (0, 1)
        )
        assert result.coverage > 0
        assert _count(manager, "recovery.duplicate_query_seq") == 0

    def test_exclusive_belief_sources(self):
        system = _system(n_nodes=3)
        with pytest.raises(ConfigurationError):
            FailoverManager(system=system, health=HealthMonitor(3),
                            views=FleetBelief(3))


class TestFailoverSatellites:
    def test_blind_fallback_is_explicit_logged_and_counted(self, monkeypatch):
        monkeypatch.setattr(health_module, "MISS_THRESHOLD", 2)
        live = Telemetry()
        booked = []
        for telemetry in (live, NULL_TELEMETRY):
            system = _system(n_nodes=3, telemetry=telemetry)
            health = HealthMonitor(3)
            manager = system.attach_failover(health=health)
            before = _count(manager, "recovery.blind_fallback")
            # the belief loses faith in the whole fleet while ground
            # truth still has three alive nodes: the fallback must
            # announce itself
            for r in range(3):
                health.tick(r)
            assert health.alive_nodes == []
            assert manager.step() is None  # still coordinator 0, via fallback
            assert manager.coordinator == 0
            assert _count(manager, "recovery.blind_fallback") > before
            assert any("blind fallback" in line for line in manager.log)
            booked.append(manager.counts)
        # the table fills alike under both handles, and the live
        # registry reads it in place
        assert booked[0] == booked[1]
        assert live.registry.counter("recovery.blind_fallback") == _count(
            manager, "recovery.blind_fallback"
        )

    def test_history_log_and_claims_are_ring_bounded(self, monkeypatch):
        monkeypatch.setattr(failover, "MAX_HISTORY", 2)
        monkeypatch.setattr(failover, "MAX_CLAIMS", 3)
        system = _system(n_nodes=3)
        manager = FailoverManager(system=system)
        for _ in range(5):
            system.fail_node(0)
            manager.step()
            system.restore_node(0)
            manager.step()
        assert len(manager.history) == 2
        # the ring keeps the *newest* events
        assert manager.history[-1].new_coordinator == 0
        assert len(manager.claim_log) == 3
        # the audit counts every handover, not the ring's survivors
        assert _audit_coordination(manager).failovers == 10
        for i in range(600):
            manager._note(f"line {i}")
        assert len(manager.log) == failover.MAX_LOG
        assert manager.log[-1] == "line 599"

    def test_flapping_belief_causes_no_spurious_handover(self):
        # node 0 misses two consecutive probe rounds — under the
        # MISS_THRESHOLD=3 guard — then reappears: no handover, no
        # stepdown, no epoch churn
        system = _system(n_nodes=5)
        belief = FleetBelief(5)
        manager = FailoverManager(system=system, views=belief)
        assert (manager.coordinator, manager.epoch) == (0, 1)
        for r in range(8):
            for obs in range(5):
                belief.heartbeat(obs, obs, r)
                for sender in range(5):
                    flapping = sender == 0 and r in (2, 3)
                    if sender != obs and not flapping:
                        belief.heartbeat(obs, sender, r)
            belief.tick(r)
            manager.step(round_index=r)
        assert (manager.coordinator, manager.epoch) == (0, 1)
        assert manager.history == []
        assert _count(manager, "recovery.stepdowns") == 0
        assert _count(manager, "recovery.fencing.rejected") == 0


class TestRecoveryLedger:
    """The manager's ``counts`` table is the one ledger of its events."""

    @staticmethod
    def _storm(telemetry, monkeypatch):
        managers = []
        attach = ScaloSystem.attach_failover

        def capture(system, *args, **kwargs):
            managers.append(attach(system, *args, **kwargs))
            return managers[-1]

        monkeypatch.setattr(ScaloSystem, "attach_failover", capture)
        report = run_partition_storm(partition_config(0), telemetry)
        (manager,) = managers
        return report, manager

    def test_table_fills_alike_under_both_handles(self, monkeypatch):
        telemetry = Telemetry()
        live, live_manager = self._storm(telemetry, monkeypatch)
        null, null_manager = self._storm(NULL_TELEMETRY, monkeypatch)
        assert live.invariants.row() == null.invariants.row()
        assert live_manager.counts == null_manager.counts
        assert _count(live_manager, "recovery.failovers") > 0
        assert _count(live_manager, "recovery.fencing.rejected") > 0
        registry = telemetry.registry
        for (name, labels), value in live_manager.counts.items():
            assert name.startswith("recovery.") and labels == ()
            if name == "recovery.fencing.rejected":
                # plus the receivers' discards of stale-epoch queries
                assert registry.counter(name) >= value
            else:
                assert registry.counter(name) == value


class TestQuorumServing:
    _QUORUM_LOSS_EVENTS = [
        FaultEvent(2, 6, FaultKind.NODE_CRASH),
        FaultEvent(6, 2, FaultKind.PARTITION_START),
        FaultEvent(18, 0, FaultKind.PARTITION_HEAL),
    ]

    def _plan(self):
        return FaultPlan(n_nodes=7, n_rounds=40,
                         events=list(self._QUORUM_LOSS_EVENTS))

    def _load(self):
        return LoadGenConfig(n_requests=48, offered_qps=40.0, seed=0,
                             deadline_ms=300.0, min_coverage=0.9)

    def test_quorum_loss_pins_serving_to_cache_only(self):
        telemetry = Telemetry()
        server, report = serve_session(
            n_nodes=7, electrodes=2, n_windows=3, seed=0,
            load=self._load(), fault_plan=self._plan(), telemetry=telemetry,
        )
        assert server.failover is not None
        registry = telemetry.registry
        assert registry.counter("serving.quorum.lost") >= 1
        assert registry.counter("serving.quorum.regained") >= 1
        assert registry.gauge("serving.quorum") == 1.0  # healed by the end
        assert any("quorum" in line for line in server._log)
        assert report.completed > 0

    def test_partition_serving_is_deterministic(self):
        kwargs = dict(n_nodes=7, electrodes=2, n_windows=3, seed=0,
                      load=self._load())
        _, a = serve_session(fault_plan=self._plan(), **kwargs)
        _, b = serve_session(fault_plan=self._plan(), **kwargs)
        _, live = serve_session(fault_plan=self._plan(),
                                telemetry=Telemetry(), **kwargs)
        assert a.response_log == b.response_log == live.response_log

    def test_partition_free_plans_skip_the_quorum_stack(self):
        plan = FaultPlan.generate(4, 16, seed=0, n_crashes=1, reboot_after=4)
        server, _ = serve_session(seed=0, fault_plan=plan)
        assert server.failover is None
