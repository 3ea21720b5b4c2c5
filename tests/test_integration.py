"""Whole-system integration: every layer in one closed-loop scenario.

Generates a multi-site recording, runs the full distributed seizure
protocol over the *real* wireless network objects (packets, CRC, BER
channel), stores and retrieves windows through the NVM controllers,
closes the loop with stimulation, answers an interactive query, and
offloads telemetry — the end-to-end path a deployment would take.
"""

import numpy as np
import pytest

from repro.apps.queries import QueryEngine, QuerySpec
from repro.apps.seizure import SeizureDetector, train_detector_from_recording
from repro.apps.stimulation import Stimulator
from repro.apps.streaming import Codec, TelemetryOffloader, TelemetryReceiver
from repro.core.system import ScaloSystem
from repro.datasets.synthetic_ieeg import generate_ieeg
from repro.telemetry import Telemetry
from tests.dtw_oracle import dtw_distance


@pytest.fixture(scope="module")
def scenario():
    recording = generate_ieeg(
        n_nodes=3, n_electrodes=4, duration_s=1.2, fs_hz=6000,
        n_seizures=1, seizure_duration_s=0.35, seed=11,
    )
    detector = train_detector_from_recording(
        recording, max_windows_per_node=150, seed=0
    )
    system = ScaloSystem(
        n_nodes=3, electrodes_per_node=4, telemetry=Telemetry()
    )
    return recording, detector, system


def _run_closed_loop(recording, detector: SeizureDetector,
                     system: ScaloSystem, dtw_threshold=250.0):
    """The protocol over real system objects; returns the event log."""
    window = 120
    n_windows = recording.n_samples // window
    stimulators = {
        n: Stimulator(n, recording.n_electrodes) for n in range(3)
    }
    confirmations = []
    detections = {n: [] for n in range(3)}
    window_ms = window / recording.fs_hz * 1e3

    for w in range(n_windows):
        start = w * window
        chunk = recording.data[:, :, start : start + window]
        signatures = system.ingest(chunk)

        detecting = [
            node for node in range(3)
            if detector.detect_window(chunk[node].mean(axis=0))
        ]
        for node in detecting:
            detections[node].append(w)
            system.broadcast_hashes(node, signatures[node], seq=w & 0xFFFF)

        for node in range(3):
            for packet in system.drain_inbox(node):
                received = system.unpack_hashes(packet)
                matches = system.nodes[node].check_remote_hashes(received)
                if not matches:
                    continue
                src = packet.header.src
                src_electrode, record = matches[0]
                cost = dtw_distance(
                    chunk[src, src_electrode].astype(float),
                    chunk[node, record.electrode].astype(float),
                    band=10,
                )
                if cost <= dtw_threshold:
                    confirmations.append((src, node, w))
                    stimulators[node].stimulate(
                        record.electrode, w * window_ms
                    )
    return detections, confirmations, stimulators


class TestClosedLoop:
    @pytest.fixture(scope="class")
    def run(self, scenario):
        recording, detector, system = scenario
        return scenario, _run_closed_loop(recording, detector, system)

    def test_seizure_detected_at_onset_node(self, run):
        (recording, _, _), (detections, _, _) = run
        seizure = recording.seizures[0]
        assert detections[seizure.onset_node]

    def test_propagation_confirmed_over_real_network(self, run):
        _, (_, confirmations, _) = run
        assert confirmations

    def test_stimulation_executed_with_refractory(self, run):
        _, (_, confirmations, stimulators) = run
        executed = sum(len(s.events) for s in stimulators.values())
        assert 0 < executed <= len(confirmations)

    def test_network_stats_accumulated(self, run):
        ((_, _, system), _) = run
        registry = system.telemetry.registry
        assert registry.counter("network.packets_sent") > 0
        assert registry.counter("network.delivered") > 0

    def test_windows_retrievable_from_nvm(self, run):
        ((recording, _, system), _) = run
        stored = system.nodes[0].storage.read_window(0, 0)
        original = recording.data[0, 0, :120]
        # int16 storage truncates fractions; shape must survive intact
        assert stored.shape == (120,)
        assert np.corrcoef(stored, original)[0, 1] > 0.5

    def test_interactive_query_over_stored_data(self, run):
        ((recording, _, system), (detections, _, _)) = run
        engine = QueryEngine(
            [node.storage for node in system.nodes],
            system.lsh,
            seizure_flags={n: set(w) for n, w in detections.items()},
        )
        n_windows = recording.n_samples // 120
        rows = engine.run(QuerySpec("q1", 100.0),
                          window_range=(0, n_windows)).rows
        assert rows  # flagged windows come back
        flagged = {(r.node, r.window_index) for r in rows}
        for node, windows in detections.items():
            for w in windows:
                assert (node, w) in flagged

    def test_telemetry_offload_of_stored_window(self, run):
        ((_, _, system), _) = run
        window = system.nodes[1].storage.read_window(2, 3)
        offloader = TelemetryOffloader(bytes(range(16)), Codec.LIC)
        receiver = TelemetryReceiver(bytes(range(16)))
        chunk = offloader.offload(window)
        assert (receiver.receive(chunk) == window).all()
