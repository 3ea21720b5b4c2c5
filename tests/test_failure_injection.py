"""Failure injection: the system under hostile conditions.

The paper's design arguments are really resilience arguments — hashes
survive encoding errors, DTW survives bit flips, the TDMA schedule
survives lossy rounds.  These tests push each failure mode well past the
design point and check that the system degrades instead of breaking.
"""

import numpy as np
import pytest
from dataclasses import replace

from repro.apps.seizure import SeizurePropagationSimulator, train_detector_from_recording
from repro.core.clock_sync import TARGET_PRECISION_US, NodeClock, SNTPSynchroniser
from repro.errors import SchedulingError, StorageError
from repro.hashing.lsh import LSHFamily
from repro.network.channel import BitErrorChannel
from repro.network.network import WirelessNetwork
from repro.network.packet import BROADCAST, Packet, PayloadKind
from repro.network.radio import LOW_POWER
from repro.network.tdma import TDMAConfig
from repro.scheduler.ilp import Flow, SchedulerProblem
from repro.scheduler.model import (
    dtw_similarity_task,
    hash_similarity_task,
    seizure_detection_task,
)
from repro.storage.controller import StorageController
from repro.storage.nvm import NVMDevice


class TestNetworkUnderFire:
    def _network(self, ber: float):
        radio = replace(LOW_POWER, bit_error_rate=ber)
        network = WirelessNetwork(tdma=TDMAConfig(radio=radio), seed=1)
        inbox: list[Packet] = []
        network.register(0, lambda p: None)
        network.register(1, inbox.append)
        return network, inbox

    def test_extreme_ber_drops_most_hash_packets_cleanly(self):
        network, inbox = self._network(ber=0.01)
        for i in range(100):
            network.send(Packet.build(0, 1, PayloadKind.HASHES, bytes(100),
                                      seq=i))
        # heavy loss, but every delivered packet passed its CRC
        assert network.stats.dropped_payload + network.stats.dropped_header > 50
        assert all(p.payload_ok for p in inbox)

    def test_signal_packets_always_flow(self):
        network, inbox = self._network(ber=0.001)
        for i in range(60):
            network.send(Packet.build(0, 1, PayloadKind.SIGNAL, bytes(200),
                                      seq=i))
        # signal packets are delivered even when corrupted (DTW
        # resilience); only the ~12 % of header corruptions drop them
        assert len(inbox) > 45
        assert any(not p.payload_ok for p in inbox)  # corrupted but kept

    def test_burst_corruption_never_crashes_parsing(self, rng):
        channel = BitErrorChannel(0.05, seed=2)
        for i in range(50):
            packet = Packet.build(
                int(rng.integers(0, 63)), BROADCAST, PayloadKind.HASHES,
                bytes(rng.integers(0, 256, int(rng.integers(1, 256)),
                                   dtype=np.uint8)),
                seq=i,
            )
            received, _ = channel.transmit(packet)
            # integrity predicates must be total functions
            _ = received.intact, received.header_ok, received.payload_ok


class TestProtocolUnderErrors:
    @pytest.fixture(scope="class")
    def scenario(self):
        from repro.datasets.synthetic_ieeg import generate_ieeg

        recording = generate_ieeg(
            n_nodes=2, n_electrodes=4, duration_s=1.0, fs_hz=6000,
            n_seizures=1, seizure_duration_s=0.3, seed=3,
        )
        detector = train_detector_from_recording(
            recording, max_windows_per_node=120, seed=0
        )
        return recording, detector

    def test_total_packet_loss_still_detects_locally(self, scenario):
        recording, detector = scenario
        result = SeizurePropagationSimulator(
            recording, detector, LSHFamily.for_measure("dtw"),
            dtw_threshold=250.0, packet_loss_rate=0.999, seed=1,
        ).run()
        # no confirmations without a network, but detection never stops
        assert result.hash_rounds_lost == result.hash_broadcasts
        assert any(result.detections.values())
        assert not result.confirmations

    def test_garbage_hashes_do_not_fabricate_confirmations(self, scenario):
        recording, detector = scenario
        result = SeizurePropagationSimulator(
            recording, detector, LSHFamily.for_measure("dtw"),
            dtw_threshold=250.0, hash_error_rate=1.0, seed=1,
        ).run()
        # every hash random: the 7-of-12 rule keeps false confirms near 0
        assert len(result.confirmations) <= 2


class TestStorageExhaustion:
    def test_hash_partition_wraps_instead_of_failing(self, rng):
        controller = StorageController(
            device=NVMDevice(capacity_bytes=16 * 1024 * 1024)
        )
        partition = controller.table["hashes"]
        batch = [(1, 2, 3)] * 64
        writes = 0
        while partition.write_head <= partition.size_bytes:  # until it wraps
            controller.store_hash_batch(writes, float(writes), batch)
            writes += 1
            assert writes < 10_000, "partition never wrapped"
        # the ring keeps accepting after the wrap (oldest data overwritten)
        controller.store_hash_batch(writes, float(writes), batch)
        assert controller.read_hash_batch(writes) == batch

    def test_oversized_object_rejected_not_corrupted(self):
        controller = StorageController(
            device=NVMDevice(capacity_bytes=16 * 1024 * 1024)
        )
        size = controller.table["appdata"].size_bytes
        with pytest.raises(StorageError):
            controller.store_appdata("huge", b"x" * (size + 1))
        controller.store_appdata("ok", b"fine")
        assert controller.read_appdata("ok") == b"fine"


class TestSchedulerInfeasibility:
    def test_starved_budget_fails_loudly(self):
        with pytest.raises(SchedulingError):
            SchedulerProblem(
                4, [Flow(seizure_detection_task())], power_budget_mw=1.0
            ).solve()

    def test_network_dead_flow_degrades_to_zero_not_crash(self):
        # 200 nodes: the all-to-all hash exchange cannot fit its budget
        schedule = SchedulerProblem(
            200,
            [Flow(hash_similarity_task("all_all", net_budget_ms=1.0))],
        ).solve()
        assert schedule.allocations[0].aggregate_electrodes == 0.0

    def test_competing_flows_share_without_violating_power(self):
        flows = [
            Flow(seizure_detection_task(), electrode_cap=96),
            Flow(hash_similarity_task("all_all", net_budget_ms=1.0),
                 electrode_cap=96),
            Flow(dtw_similarity_task("one_all", net_budget_ms=4.0),
                 electrode_cap=96),
        ]
        schedule = SchedulerProblem(8, flows, power_budget_mw=6.0).solve()
        assert schedule.node_power_mw <= 6.0 + 1e-9


class TestClockSyncUnderJitter:
    def test_huge_jitter_still_converges_or_reports(self):
        clocks = [NodeClock(offset_us=o) for o in (-5000.0, 0.0, 7000.0)]
        report = SNTPSynchroniser(jitter_us=50.0, seed=0).synchronise(clocks)
        # with 50 us jitter the 5 us target may not be met; the report
        # must say so honestly rather than loop forever
        assert report.rounds <= 20
        if report.worst_offset_us > TARGET_PRECISION_US:
            assert report.worst_offset_us > 5.0

    def test_low_jitter_converges_fast(self):
        clocks = [NodeClock(offset_us=o) for o in (-5000.0, 0.0, 7000.0)]
        report = SNTPSynchroniser(jitter_us=1.0, seed=0).synchronise(clocks)
        assert report.worst_offset_us <= TARGET_PRECISION_US
        assert report.rounds <= 3
