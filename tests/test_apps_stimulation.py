"""Tests for the stimulation subsystem (safety, refractory, closed loop)."""

import pytest

from repro.apps import stimulation
from repro.apps.seizure import PropagationEvent
from repro.apps.stimulation import (
    REFRACTORY_MS,
    SHANNON_K_LIMIT,
    StimulationProtocol,
    Stimulator,
    check_safety,
    stimulate_from_confirmations,
)
from repro.errors import ConfigurationError


class TestProtocol:
    def test_charge_per_phase(self):
        protocol = StimulationProtocol(amplitude_ua=100.0, phase_us=200.0)
        assert protocol.charge_per_phase_uc == pytest.approx(0.02)

    def test_default_protocol_is_safe(self):
        assert check_safety(StimulationProtocol())

    def test_aggressive_protocol_unsafe(self):
        # 10 mA x 1 ms on a micro-electrode is far over the Shannon line
        protocol = StimulationProtocol(amplitude_ua=10_000.0, phase_us=1000.0,
                                       frequency_hz=100.0)
        assert not check_safety(protocol)
        assert protocol.shannon_k() > SHANNON_K_LIMIT

    def test_larger_electrode_relaxes_limit(self, monkeypatch):
        protocol = StimulationProtocol(amplitude_ua=1000.0, phase_us=400.0)
        monkeypatch.setattr(stimulation, "ELECTRODE_AREA_CM2", 1e-2)
        large = protocol.shannon_k()
        monkeypatch.setattr(stimulation, "ELECTRODE_AREA_CM2", 1e-4)
        assert large < protocol.shannon_k()

    def test_duty_overflow_rejected(self):
        with pytest.raises(ConfigurationError):
            StimulationProtocol(phase_us=4000.0, frequency_hz=200.0)

    def test_negative_parameter_rejected(self):
        with pytest.raises(ConfigurationError):
            StimulationProtocol(amplitude_ua=-5.0)


class TestStimulator:
    def test_refractory_enforced(self):
        stimulator = Stimulator(0, 4)
        assert stimulator.stimulate(1, 0.0) is not None
        assert stimulator.stimulate(1, REFRACTORY_MS / 2) is None
        assert stimulator.stimulate(1, REFRACTORY_MS + 1) is not None

    def test_refractory_is_per_electrode(self):
        stimulator = Stimulator(0, 4)
        stimulator.stimulate(0, 0.0)
        assert stimulator.stimulate(1, 1.0) is not None

    def test_unsafe_protocol_rejected(self):
        stimulator = Stimulator(0, 4)
        bad = StimulationProtocol(amplitude_ua=10_000.0, phase_us=1000.0,
                                  frequency_hz=100.0)
        with pytest.raises(ConfigurationError):
            stimulator.stimulate(0, 0.0, bad)

    def test_bad_electrode_rejected(self):
        with pytest.raises(ConfigurationError):
            Stimulator(0, 4).stimulate(9, 0.0)

    def test_energy_accounting(self):
        stimulator = Stimulator(0, 4)
        stimulator.stimulate(0, 0.0)
        # 0.6 mW DAC x 100 ms train
        assert stimulator.energy_mj() == pytest.approx(0.06)


class TestClosedLoop:
    def test_confirmations_drive_stimulation(self):
        confirmations = [
            PropagationEvent(0, 1, 10, 5.0),
            PropagationEvent(0, 2, 10, 5.0),
            PropagationEvent(0, 1, 11, 5.0),  # within node 1's refractory
        ]
        stimulators = {1: Stimulator(1, 4), 2: Stimulator(2, 4)}
        executed = stimulate_from_confirmations(
            confirmations, stimulators, window_ms=4.0
        )
        assert len(executed) == 2
        assert {e.node for e in executed} == {1, 2}

    def test_missing_stimulator_rejected(self):
        with pytest.raises(ConfigurationError):
            stimulate_from_confirmations(
                [PropagationEvent(0, 9, 0, 1.0)], {}, window_ms=4.0
            )
