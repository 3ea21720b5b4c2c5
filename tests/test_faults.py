"""Tests for the fault-injection substrate: plans, injector, health,
degraded operation, and failure-aware rescheduling."""

import numpy as np
import pytest

from repro.apps.queries import QuerySpec
from repro.core.system import ScaloSystem
from repro.errors import ConfigurationError, NodeFailure, SchedulingError
from repro.faults.health import HealthMonitor
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.scheduler.ilp import Flow
from repro.scheduler.model import seizure_detection_task
from repro.telemetry import Telemetry
from repro.units import WINDOW_SAMPLES


def _small_system(n_nodes=4, electrodes=4, seed=0):
    return ScaloSystem(n_nodes=n_nodes, electrodes_per_node=electrodes, seed=seed)


def _ingest_rounds(system, n_rounds, seed=0):
    rng = np.random.default_rng(seed)
    for _ in range(n_rounds):
        system.ingest(
            rng.normal(
                size=(system.n_nodes, system.electrodes_per_node, WINDOW_SAMPLES)
            )
        )


class TestFaultPlan:
    def test_generation_is_deterministic_and_log_byte_identical(self):
        kwargs = dict(
            n_crashes=2, reboot_after=5, n_outages=2, outage_rounds=3,
            n_bit_rot=3, rot_bits=4, n_drift_spikes=2,
        )
        a = FaultPlan.generate(6, 100, seed=42, **kwargs)
        b = FaultPlan.generate(6, 100, seed=42, **kwargs)
        assert a.event_log() == b.event_log()
        assert a.event_log().encode() == b.event_log().encode()
        assert a.events == b.events

    def test_different_seeds_differ(self):
        a = FaultPlan.generate(6, 100, seed=1, n_crashes=2, n_outages=2)
        b = FaultPlan.generate(6, 100, seed=2, n_crashes=2, n_outages=2)
        assert a.event_log() != b.event_log()

    def test_events_at_returns_round_events_only(self):
        plan = FaultPlan.generate(4, 50, seed=3, n_crashes=2, n_bit_rot=3)
        collected = [e for r in range(50) for e in plan.events_at(r)]
        assert collected == plan.events

    def test_out_of_range_event_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(n_nodes=2, n_rounds=10,
                      events=[FaultEvent(10, 0, FaultKind.NODE_CRASH)])
        with pytest.raises(ConfigurationError):
            FaultPlan(n_nodes=2, n_rounds=10,
                      events=[FaultEvent(0, 2, FaultKind.NODE_CRASH)])


class TestFaultInjectorDeterminism:
    def _run_once(self):
        system = ScaloSystem(
            n_nodes=4, electrodes_per_node=4, telemetry=Telemetry()
        )
        plan = FaultPlan.generate(
            4, 30, seed=7, n_crashes=1, reboot_after=8, n_outages=1,
            outage_rounds=4, n_bit_rot=2, rot_bits=4, n_drift_spikes=1,
        )
        injector = FaultInjector(system, plan)
        rng = np.random.default_rng(1)
        for round_index in range(plan.n_rounds):
            injector.step()
            windows = rng.normal(
                size=(4, system.electrodes_per_node, WINDOW_SAMPLES)
            )
            signatures = system.ingest(windows)
            for src in system.alive_node_ids:
                if system.network.in_outage(src):
                    continue
                system.broadcast_hashes(src, signatures[src], seq=round_index)
        return injector.event_log(), (
            system.network.channel._rng.bit_generator.state,
            [node.storage.state_digest() for node in system.nodes],
            system.telemetry.snapshot(),
        )

    def test_same_seed_gives_byte_identical_logs_and_stats(self):
        log_a, state_a = self._run_once()
        log_b, state_b = self._run_once()
        assert log_a.encode() == log_b.encode()
        assert state_a == state_b


class TestFaultInjectorEffects:
    def test_crash_unregisters_and_reboot_rejoins(self):
        system = _small_system()
        plan = FaultPlan(
            n_nodes=4, n_rounds=12,
            events=[
                FaultEvent(2, 3, FaultKind.NODE_CRASH),
                FaultEvent(8, 3, FaultKind.NODE_REBOOT),
            ],
        )
        injector = FaultInjector(system, plan)
        for _ in range(5):
            injector.step()
        assert system.alive_node_ids == [0, 1, 2]
        assert 3 not in system.network.node_ids
        for _ in range(7):
            injector.step()
        assert system.alive_node_ids == [0, 1, 2, 3]
        assert 3 in system.network.node_ids

    def test_monitor_declares_crashed_node_dead(self):
        system = _small_system()
        plan = FaultPlan(
            n_nodes=4, n_rounds=10,
            events=[FaultEvent(1, 2, FaultKind.NODE_CRASH)],
        )
        injector = FaultInjector(system, plan)
        for _ in range(plan.n_rounds):
            injector.step()
        assert injector.health.dead_nodes == [2]
        assert len(injector.health.alive_nodes) == 3

    def test_bit_rot_corrupts_stored_data(self):
        system = _small_system()
        _ingest_rounds(system, 2)
        device = system.nodes[1].storage.device
        before = {p: device._pages[p] for p in device.programmed_pages}
        plan = FaultPlan(
            n_nodes=4, n_rounds=2,
            events=[FaultEvent(0, 1, FaultKind.NVM_BIT_ROT, magnitude=16.0)],
        )
        FaultInjector(system, plan).step()
        after = {p: device._pages[p] for p in device.programmed_pages}
        assert any(before[p] != after[p] for p in before)

    def test_clock_drift_spike_bumps_offset(self):
        system = _small_system()
        offset_before = system.clocks[0].offset_us
        plan = FaultPlan(
            n_nodes=4, n_rounds=1,
            events=[
                FaultEvent(0, 0, FaultKind.CLOCK_DRIFT_SPIKE, magnitude=75.0)
            ],
        )
        FaultInjector(system, plan).step()
        assert system.clocks[0].offset_us == pytest.approx(offset_before + 75.0)

    def test_outage_drops_traffic_but_node_survives(self):
        system = ScaloSystem(
            n_nodes=4, electrodes_per_node=4, telemetry=Telemetry()
        )
        plan = FaultPlan(
            n_nodes=4, n_rounds=6,
            events=[
                FaultEvent(0, 1, FaultKind.RADIO_OUTAGE_START),
                FaultEvent(4, 1, FaultKind.RADIO_OUTAGE_END),
            ],
        )
        injector = FaultInjector(system, plan)
        injector.step()
        signatures = system.ingest(
            np.zeros((4, system.electrodes_per_node, WINDOW_SAMPLES))
        )
        system.broadcast_hashes(0, signatures[0])
        assert system.telemetry.registry.counter(
            "network.dropped", reason="outage"
        ) == 1  # node 1 deaf
        assert len(system.drain_inbox(2)) == 1
        for _ in range(5):
            injector.step()
        assert system.is_alive(1)
        assert injector.health.is_alive(1)  # heartbeat resumed after outage


class TestHealthMonitor:
    def test_threshold_and_recovery(self):
        monitor = HealthMonitor(n_nodes=2, miss_threshold=2)
        monitor.heartbeat(0, 0)
        monitor.heartbeat(1, 0)
        assert monitor.tick(0) == []
        assert monitor.tick(1) == []
        monitor.heartbeat(0, 2)
        assert monitor.tick(2) == [1]
        assert not monitor.is_alive(1)
        monitor.heartbeat(1, 3)
        assert monitor.is_alive(1)
        assert ("recovered" in [h[2] for h in monitor.history])

    def test_bad_configuration_rejected(self):
        with pytest.raises(ConfigurationError):
            HealthMonitor(n_nodes=0)
        with pytest.raises(ConfigurationError):
            HealthMonitor(n_nodes=2, miss_threshold=0)
        with pytest.raises(ConfigurationError):
            HealthMonitor(n_nodes=2).heartbeat(5, 0)

    def test_flapping_die_reboot_die(self):
        """Dead → alive → dead again: every transition lands in history."""
        monitor = HealthMonitor(n_nodes=2, miss_threshold=2)
        for r in range(3):
            monitor.heartbeat(0, r)
            monitor.heartbeat(1, r)
            monitor.tick(r)
        monitor.heartbeat(0, 3)  # node 1 goes silent
        assert monitor.tick(3) == []
        monitor.heartbeat(0, 4)
        assert monitor.tick(4) == [1]
        monitor.heartbeat(1, 5)  # reboot: fresh heartbeat revives it
        assert monitor.is_alive(1)
        monitor.tick(5)
        monitor.tick(6)  # silent again
        assert monitor.tick(7) == [1]
        assert [h for h in monitor.history if h[1] == 1] == [
            (4, 1, "dead"), (5, 1, "recovered"), (7, 1, "dead"),
        ]

    def test_stale_heartbeat_neither_revives_nor_rewinds(self):
        monitor = HealthMonitor(n_nodes=1, miss_threshold=2)
        monitor.heartbeat(0, 5)
        monitor.tick(5)
        assert monitor.tick(7) == [0]
        # a delayed pre-crash heartbeat (round 3 < last seen 5) arrives late
        monitor.heartbeat(0, 3)
        assert not monitor.is_alive(0)
        assert monitor.tick(8) == []
        # only fresh evidence flips dead -> alive
        monitor.heartbeat(0, 8)
        assert monitor.is_alive(0)

    def test_injector_flapping_node_recovers_twice(self):
        system = ScaloSystem(
            n_nodes=2, electrodes_per_node=2, seed=0, arq=True
        )
        plan = FaultPlan(
            n_nodes=2, n_rounds=8,
            events=[
                FaultEvent(1, 1, FaultKind.NODE_CRASH),
                FaultEvent(3, 1, FaultKind.NODE_REBOOT),
                FaultEvent(5, 1, FaultKind.NODE_CRASH),
                FaultEvent(7, 1, FaultKind.NODE_REBOOT),
            ],
        )
        injector = FaultInjector(system, plan, resync_on_reboot=True)
        for _ in range(plan.n_rounds):
            injector.step()
        assert system.is_alive(1)
        recoveries = [line for line in injector.log if "node recovered" in line]
        assert len(recoveries) == 2
        assert injector.health.is_alive(1)


class TestGracefulDegradation:
    """The acceptance scenario: N>=4 nodes, one crash, queries survive."""

    def test_query_over_survivors_tagged_degraded(self):
        system = _small_system(n_nodes=4)
        _ingest_rounds(system, 4)
        system.fail_node(2)
        result = system.query(QuerySpec(kind="q3", time_range_ms=50.0), (0, 4))
        assert result.degraded
        assert result.failed_nodes == [2]
        assert result.coverage == pytest.approx(0.75)
        assert result.rows  # survivors answered
        assert {row.node for row in result.rows} == {0, 1, 3}

    def test_healthy_system_not_degraded(self):
        system = _small_system(n_nodes=4)
        _ingest_rounds(system, 2)
        result = system.query(QuerySpec(kind="q3", time_range_ms=50.0), (0, 2))
        assert not result.degraded
        assert result.coverage == 1.0

    def test_broadcast_from_dead_node_raises_node_failure(self):
        system = _small_system()
        system.fail_node(0)
        with pytest.raises(NodeFailure):
            system.broadcast_hashes(0, [], seq=0)

    def test_fail_and_restore_are_idempotent(self):
        system = _small_system()
        system.fail_node(1)
        system.fail_node(1)  # no-op
        assert system.dead_node_ids == [1]
        system.restore_node(1)
        system.restore_node(1)  # no-op
        assert system.alive_node_ids == [0, 1, 2, 3]

    def test_ingest_skips_dead_node(self):
        system = _small_system()
        system.fail_node(3)
        signatures = system.ingest(
            np.zeros((4, system.electrodes_per_node, WINDOW_SAMPLES))
        )
        assert signatures[3] == []
        assert all(signatures[n] for n in (0, 1, 2))

    def test_reschedule_excludes_dead_nodes(self):
        system = _small_system(n_nodes=4)
        flows = [Flow(seizure_detection_task(), electrode_cap=96)]
        full = system.reschedule(flows)
        assert full.n_nodes == 4
        system.fail_node(1)
        reduced = system.reschedule(flows)
        assert reduced.n_nodes == 3
        assert reduced.aggregate_mbps < full.aggregate_mbps
        system.fail_node(0)
        system.fail_node(2)
        system.fail_node(3)
        with pytest.raises(SchedulingError):
            system.reschedule(flows)


class TestNVMBitRot:
    def test_rot_only_affects_programmed_pages(self):
        from repro.storage.nvm import NVMDevice

        # without ECC the rotted byte is returned raw
        device = NVMDevice(capacity_bytes=2 * 1024 * 1024, ecc_enabled=False)
        assert device.inject_bit_rot(0, np.array([0, 1, 2])) == 0
        device.program_page(0, b"\x00" * 64)
        assert device.inject_bit_rot(0, np.array([0])) == 1
        assert device.read(0, 0, 8)[0] == 0x80

    def test_ecc_corrects_single_bit_rot_on_read(self):
        from repro.storage.nvm import NVMDevice

        device = NVMDevice(capacity_bytes=2 * 1024 * 1024)
        device.program_page(0, b"\x00" * 64)
        assert device.inject_bit_rot(0, np.array([0])) == 1
        assert device.read(0, 0, 8)[0] == 0x00  # SECDED repaired it
        # the repair was written back: a scrub finds nothing left
        assert device.check_page(0) == (0, False)
        assert device.poisoned_pages == []

    def test_rot_is_invisible_to_stats(self):
        from repro.storage.nvm import NVMDevice

        device = NVMDevice(capacity_bytes=2 * 1024 * 1024)
        device.program_page(3, b"\xaa" * 32)
        writes_before = device.stats.page_writes
        device.inject_bit_rot(3, np.array([5, 6]))
        assert device.stats.page_writes == writes_before
