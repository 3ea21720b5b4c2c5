"""Tests for the unit conventions module — the paper's magic numbers."""

import pytest

from repro import units


class TestPaperConstants:
    def test_electrode_rate(self):
        # 30 kHz x 16 bit = 480 kbps per channel
        assert units.ELECTRODE_RATE_BPS == 480_000

    def test_node_rate_is_halo_headline(self):
        # 96 electrodes = HALO's 46 Mbps interfacing rate
        node_mbps = units.electrodes_to_mbps(units.ELECTRODES_PER_NODE)
        assert node_mbps == pytest.approx(46.08)

    def test_adc_power_split(self):
        assert units.ADC_POWER_MW_PER_ELECTRODE * 96 == pytest.approx(2.88)

    def test_window_geometry(self):
        # 4 ms at 30 kHz = 120 samples = 240 B at 16 bit
        assert units.WINDOW_SAMPLES == 120
        assert units.WINDOW_BYTES == 240

    def test_power_cap(self):
        assert units.NODE_POWER_CAP_MW == 15.0
