"""Tests for the per-figure experiment drivers (small, fast settings)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.eval.application import fig9a, fig9b, sec63_scalars
from repro.eval.delay import build_trace, encoding_delay, network_delay
from repro.eval.hash_accuracy import hash_accuracy, make_pairs, pick_threshold
from repro.eval.hash_params import sweep_measure
from repro.eval.network_errors import network_errors
from repro.eval.queries import data_sizes_mb, fig10, q2_hash_vs_dtw
from repro.eval.radio_dse import fig13
from repro.eval.reporting import format_table
from repro.eval.tables import table1_summary, table1_text, table3_text
from repro.eval.throughput import fig8a, sec62_local_tasks


class TestTables:
    def test_table1_summary(self):
        summary = table1_summary()
        assert summary["n_pes"] == 31
        assert summary["total_area_kge"] > 900

    def test_table_texts_render(self):
        assert "XCOR" in table1_text()
        assert "Low Power" in table3_text()

    def test_reporting_helpers(self):
        table = format_table(("a", "b"), [(1, 2.5), (3, 4.0)])
        assert "2.50" in table


class TestThroughputDrivers:
    def test_fig8a_shape(self):
        grid = fig8a()
        assert "SCALO" in grid and "mi_kf" in grid["SCALO"]

    def test_sec62_matches_paper_scale(self):
        out = sec62_local_tasks()
        det = out["seizure_detection"]
        sort = out["spike_sorting"]
        assert 65 <= det[15.0] <= 90      # paper: 79
        assert det[6.0] < det[15.0]
        assert 100 <= sort[15.0] <= 140   # paper: 118
        assert sort[6.0] < sort[15.0]


class TestApplicationDrivers:
    def test_fig9a_series(self):
        out = fig9a(node_counts=(2, 8, 11))
        assert set(out) == {"11:1:1", "3:1:1", "1:3:1"}
        series = out["11:1:1"]
        assert series[8] > series[2]

    def test_fig9b_kf_fixed_20(self):
        out = fig9b(node_counts=(2, 8))
        assert out["KF"][2] == 20.0 and out["KF"][8] == 20.0
        assert out["SVM"][2] > 100  # much faster than the 50 ms cadence

    def test_sec63_headline_numbers(self):
        scalars = sec63_scalars()
        assert 8000 <= scalars["spikes_per_second_per_node"] <= 16000
        assert 2.0 <= scalars["spike_sorting_latency_ms"] <= 3.0
        assert scalars["mi_kf_intents_per_second"] == 20.0


class TestQueryDrivers:
    def test_fig10_grid(self):
        out = fig10()
        assert out["Q1"][(110.0, 0.05)] > out["Q1"][(110.0, 1.0)]
        assert out["Q3"][(110.0, 1.0)] == pytest.approx(0.8, abs=0.15)

    def test_data_sizes(self):
        sizes = data_sizes_mb()
        assert sizes[110.0] == pytest.approx(7.0, rel=0.01)

    def test_q2_tradeoff(self):
        out = q2_hash_vs_dtw()
        assert out["dtw"]["power_mw"] > 3 * out["hash"]["power_mw"]


class TestRadioDSE:
    def test_fig13_normalised(self):
        out = fig13(n_nodes=11)
        assert out["Low Power"]["DTW One-All"] == pytest.approx(1.0)
        # High Perf doubles the communication-limited app
        assert out["High Perf"]["DTW One-All"] == pytest.approx(2.0, rel=0.1)
        # Low Data Rate halves it
        assert out["Low Data Rate"]["DTW One-All"] == pytest.approx(0.5, rel=0.15)


class TestHashAccuracyDriver:
    @pytest.fixture(scope="class")
    def result(self):
        return hash_accuracy("dtw", n_pairs=160, seed=0)

    def test_total_error_bounded(self, result):
        assert result.total_error_pct < 30.0

    def test_errors_concentrate_near_threshold(self, result):
        bins = result.error_pct
        centers = result.bin_centers_pct
        near = bins[np.abs(centers) <= 25]
        far = bins[np.abs(centers) >= 45]
        assert near.sum() >= far.sum()

    def test_pick_threshold_between_classes(self):
        values = np.array([1.0, 1.0, 10.0, 10.0])
        labels = np.array([0, 0, 1, 1])
        threshold, separation = pick_threshold(values, labels)
        assert 1.0 < threshold < 10.0
        assert separation == pytest.approx(9.0)

    def test_pairs_have_three_classes(self):
        pair_set = make_pairs(100, 0)
        assert set(np.unique(pair_set.labels)) == {0, 1, 2}

    def test_too_few_pairs_for_both_classes_rejected(self):
        # ten pairs are the fewest that include a dissimilar one
        assert set(np.unique(make_pairs(10, 0).labels)) == {0, 1}
        with pytest.raises(ConfigurationError):
            make_pairs(9, 0)


class TestNetworkErrorDriver:
    def test_monotone_in_ber(self):
        low = network_errors(1e-6, n_packets=150, seed=1)
        high = network_errors(1e-4, n_packets=150, seed=1)
        assert high.hash_packet_error_pct >= low.hash_packet_error_pct
        assert high.signal_packet_error_pct >= low.signal_packet_error_pct

    def test_design_point_has_few_errors(self):
        """Paper: at the radio's 1e-5 BER, <1-2 % of hash packets fail and
        DTW decisions never flip."""
        result = network_errors(1e-5, n_packets=300, seed=0)
        assert result.hash_packet_error_pct < 3.0
        assert result.dtw_failure_pct <= 0.5

    def test_signals_more_exposed_than_hashes(self):
        result = network_errors(1e-4, n_packets=300, seed=0)
        assert result.signal_packet_error_pct > result.hash_packet_error_pct


class TestParamSweepDriver:
    def test_sweep_produces_landscape(self):
        result = sweep_measure("dtw", n_pairs=60, seed=0)
        assert result.best in result.tpr
        assert result.best_tpr > 0.5
        assert result.best in result.near_best


class TestDelayDrivers:
    @pytest.fixture(scope="class")
    def trace(self):
        return build_trace(seed=0)

    def test_zero_error_zero_delay(self, trace):
        stats = encoding_delay(trace, 0.0, n_reps=50, seed=1)
        assert stats.max_ms == 0.0

    def test_no_impact_until_half(self, trace):
        """Paper Fig. 15a: no noticeable impact until ~50 % error rate."""
        stats = encoding_delay(trace, 0.3, n_reps=100, seed=1)
        assert stats.mean_ms < 1.0

    def test_high_error_delays(self, trace):
        low = encoding_delay(trace, 0.2, n_reps=100, seed=1)
        high = encoding_delay(trace, 0.95, n_reps=100, seed=1)
        assert high.mean_ms > low.mean_ms

    def test_network_delay_small_at_design_ber(self, trace):
        stats = network_delay(trace, 1e-5, n_reps=200, seed=1)
        assert stats.max_ms < 0.5

    def test_network_delay_monotone(self, trace):
        low = network_delay(trace, 1e-6, n_reps=400, seed=1)
        high = network_delay(trace, 1e-4, n_reps=400, seed=1)
        assert high.mean_ms >= low.mean_ms
