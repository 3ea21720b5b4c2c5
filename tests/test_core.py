"""Tests for thermal model, clock sync, nodes, system, architectures."""

import pytest

from repro.core.architectures import (
    DESIGNS,
    TASKS,
    architecture_throughput,
    fig8a_table,
)
from repro.core.clock_sync import (
    NodeClock,
    SNTPSynchroniser,
    TARGET_PRECISION_US,
)
from repro.core.node import ScaloNode
from repro.core.system import ScaloSystem
from repro.core.thermal import (
    check_placement,
    max_implants,
    relative_temperature_rise,
    temperature_rise_c,
)
from repro.errors import ConfigurationError


class TestThermal:
    def test_paper_decay_points(self):
        assert relative_temperature_rise(10.0) == pytest.approx(0.05, rel=1e-6)
        assert relative_temperature_rise(20.0) == pytest.approx(0.02, rel=1e-6)

    def test_rise_scales_with_power(self):
        assert temperature_rise_c(15.0, 0.0) == pytest.approx(
            2 * temperature_rise_c(7.5, 0.0)
        )

    def test_paper_max_implants(self):
        assert max_implants() == 60  # paper: "up to 60 SCALO implants"

    def test_sixty_implants_safe_at_cap(self):
        check = check_placement(60, per_node_power_mw=15.0)
        assert check.safe

    def test_overpacking_rejected(self):
        with pytest.raises(ConfigurationError):
            check_placement(61)

    def test_tighter_spacing_fits_more_but_heats_more(self):
        assert max_implants(spacing_mm=10.0) > max_implants(spacing_mm=20.0)
        loose = check_placement(30, spacing_mm=20.0).worst_rise_c
        tight = check_placement(30, spacing_mm=10.0).worst_rise_c
        assert tight > loose


class TestClockSync:
    def test_converges_within_rounds(self):
        clocks = [NodeClock(offset_us=o) for o in (-400.0, 0.0, 250.0, 90.0)]
        report = SNTPSynchroniser(seed=0).synchronise(clocks, server_index=1)
        assert report.worst_offset_us <= TARGET_PRECISION_US
        assert report.airtime_ms > 0

    def test_drift_accumulates(self):
        clock = NodeClock(offset_us=0.0, drift_ppm=1.0)
        clock.advance(3600.0)
        assert clock.offset_us == pytest.approx(3600.0)

    def test_empty_clock_list_rejected(self):
        with pytest.raises(ConfigurationError):
            SNTPSynchroniser().synchronise([])


class TestScaloNode:
    @pytest.fixture()
    def node(self):
        return ScaloNode(node_id=0, n_electrodes=4,
                         nvm_capacity_bytes=16 * 1024 * 1024)

    def test_ingest_stores_and_hashes(self, node, rng):
        windows = rng.normal(size=(4, 120))
        hashes = node.lsh.hash_channels(windows)
        signatures = node.ingest_window(windows, hashes)
        assert signatures == hashes
        assert (0, 0) in node.storage.stored_windows()
        assert node.read_window(2, 0).shape == (120,)
        assert node.storage.read_hash_batch(0) == hashes
        assert [r.signature for r in node.hash_store.recent(node.now_ms)] == hashes

    def test_check_remote_hashes_self_match(self, node, rng):
        windows = rng.normal(size=(4, 120)).cumsum(axis=1)
        signatures = node.ingest_window(windows, node.lsh.hash_channels(windows))
        matches = node.check_remote_hashes(signatures)
        assert matches  # identical windows must collide

    def test_wrong_shape_rejected(self, node, rng):
        windows = rng.normal(size=(3, 120))
        with pytest.raises(ConfigurationError, match="expected"):
            node.ingest_window(windows, node.lsh.hash_channels(windows))
        assert node.storage.stored_windows() == []

    def test_signature_count_must_match(self, node, rng):
        windows = rng.normal(size=(4, 120))
        with pytest.raises(ConfigurationError, match="one signature"):
            node.ingest_window(windows, node.lsh.hash_channels(windows[:3]))
        assert node.storage.stored_windows() == []


class TestScaloSystem:
    @pytest.fixture()
    def system(self):
        return ScaloSystem(n_nodes=3, electrodes_per_node=4)

    def test_wrong_node_shape_rejected_before_storing(self, system, rng):
        with pytest.raises(ConfigurationError, match="expected"):
            system.ingest(rng.normal(size=(3, 3, 120)))
        with pytest.raises(ConfigurationError, match="first axis"):
            system.ingest(rng.normal(size=(2, 4, 120)))
        assert all(node.storage.stored_windows() == [] for node in system.nodes)

    def test_broadcast_and_unpack(self, system, rng):
        windows = rng.normal(size=(3, 4, 120))
        signatures = system.ingest(windows)
        system.broadcast_hashes(0, signatures[0])
        packets = system.drain_inbox(1)
        assert len(packets) == 1
        assert system.unpack_hashes(packets[0]) == signatures[0]
        assert system.drain_inbox(1) == []  # drained

    def test_clock_sync(self, system):
        report = system.synchronise_clocks()
        assert report.worst_offset_us <= TARGET_PRECISION_US

    def test_thermal_check(self, system):
        assert system.thermal_check().safe

    def test_shared_lsh_across_nodes(self, system, rng):
        window = rng.normal(size=120)
        sigs = [node.lsh.hash_window(window) for node in system.nodes]
        assert sigs[0] == sigs[1] == sigs[2]


class TestArchitectures:
    @pytest.fixture(scope="class")
    def table(self):
        return fig8a_table(n_nodes=11, power_budget_mw=15.0)

    def test_grid_complete(self, table):
        assert set(table) == set(DESIGNS)
        for row in table.values():
            assert set(row) == set(TASKS)

    def test_scalo_wins_everywhere(self, table):
        for task in TASKS:
            best = max(table[d][task] for d in DESIGNS)
            assert table["SCALO"][task] == pytest.approx(best, rel=1e-6)

    def test_scalo_10x_central_for_local_tasks(self, table):
        # 11 distributed nodes vs one processor
        ratio = table["SCALO"]["seizure_detection"] / table["Central"][
            "seizure_detection"
        ]
        assert ratio == pytest.approx(11.0, rel=0.01)

    def test_mi_kf_ties_between_scalo_and_central(self, table):
        assert table["SCALO"]["mi_kf"] == pytest.approx(
            table["Central"]["mi_kf"], rel=0.01
        )

    def test_central_nohash_sorting_gap(self, table):
        """Paper: Central No-Hash is ~24.5x below Central for sorting."""
        ratio = table["Central"]["spike_sorting"] / table["Central No-Hash"][
            "spike_sorting"
        ]
        assert 15 <= ratio <= 35

    def test_halo_sorting_below_central_nohash(self, table):
        """Paper: HALO+NVM sorts ~40 % slower than even Central No-Hash."""
        assert (
            table["HALO+NVM"]["spike_sorting"]
            < table["Central No-Hash"]["spike_sorting"]
        )

    def test_halo_matches_central_on_detection_and_svm(self, table):
        for task in ("seizure_detection", "mi_svm"):
            assert table["HALO+NVM"][task] == pytest.approx(
                table["Central"][task], rel=1e-6
            )

    def test_halo_10_to_100x_below_central_elsewhere(self, table):
        for task in ("signal_similarity", "mi_kf", "mi_nn"):
            ratio = table["Central"][task] / table["HALO+NVM"][task]
            assert 5 <= ratio <= 150

    def test_similarity_hash_advantage_centralised(self, table):
        """Paper: Central No-Hash ~250x below Central for similarity."""
        ratio = table["Central"]["signal_similarity"] / table[
            "Central No-Hash"
        ]["signal_similarity"]
        assert ratio > 50

    def test_unknown_design_rejected(self):
        with pytest.raises(ConfigurationError):
            architecture_throughput("Quantum", "mi_svm")

    def test_unknown_task_rejected(self):
        with pytest.raises(ConfigurationError):
            architecture_throughput("SCALO", "tea_making")
