"""Shared fixtures: small, fast synthetic workloads with fixed seeds."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps import movement
from repro.apps.movement import MovementSession, generate_movement_session
from repro.datasets.spikes import SpikeDataset, generate_spikes
from repro.datasets.synthetic_ieeg import SyntheticIEEG, generate_ieeg


@pytest.fixture(scope="session")
def small_recording() -> SyntheticIEEG:
    """A 3-node recording with one propagating seizure (low fs for speed)."""
    return generate_ieeg(
        n_nodes=3,
        n_electrodes=4,
        duration_s=1.5,
        fs_hz=6000,
        n_seizures=1,
        seizure_duration_s=0.4,
        seed=2,
    )


@pytest.fixture(scope="session")
def spike_dataset() -> SpikeDataset:
    """A short MEArec-profile spike recording."""
    return generate_spikes("mearec", duration_s=2.0, seed=0)


@pytest.fixture(scope="session")
def movement_session() -> MovementSession:
    """A small movement session for decoder tests."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(movement, "STEP_WINDOW_SAMPLES", 80)
        return generate_movement_session(
            n_nodes=3, electrodes_per_node=8, n_steps=300, seed=0
        )


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(0)
