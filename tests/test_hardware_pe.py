"""Tests for PE instances and clock domains."""

import pytest

from repro.errors import ConfigurationError
from repro.hardware.catalog import get_pe
from repro.hardware.pe import ClockDomain, ProcessingElement


class TestClockDomain:
    def test_divider_scales_frequency(self):
        clock = ClockDomain(max_freq_mhz=16.0, divider=4)
        assert clock.freq_mhz == 4.0

    def test_slowest_divider_meets_requirement(self):
        clock = ClockDomain(max_freq_mhz=50.0)
        divider = clock.slowest_divider_for(7.0)
        assert divider == 7
        assert 50.0 / divider >= 7.0
        assert 50.0 / (divider + 1) < 7.0

    def test_requirement_above_max_rejected(self):
        clock = ClockDomain(max_freq_mhz=3.0)
        with pytest.raises(ConfigurationError):
            clock.slowest_divider_for(3.5)

    @pytest.mark.parametrize("divider", [0, -1, 1.5])
    def test_bad_divider_rejected(self, divider):
        with pytest.raises(ConfigurationError):
            ClockDomain(max_freq_mhz=10.0, divider=divider)


class TestProcessingElement:
    def test_latency_from_catalog(self):
        pe = ProcessingElement(get_pe("CCHECK"))
        assert pe.latency_ms == 0.50

    def test_data_dependent_latency_raises(self):
        pe = ProcessingElement(get_pe("LZ"))
        with pytest.raises(ConfigurationError):
            _ = pe.latency_ms
