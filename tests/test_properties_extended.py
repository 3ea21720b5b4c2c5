"""Second property-test batch: system-level invariants (hypothesis)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.thermal import relative_temperature_rise, temperature_rise_c
from repro.crypto.aes import AES128
from repro.hashing import lsh
from repro.hashing.lsh import LSHFamily
from repro.network.tdma import TDMAConfig, TDMASchedule
from tests.aes_oracle import decrypt_block


# --- thermal ---------------------------------------------------------------------


@given(st.floats(0.0, 100.0), st.floats(0.0, 100.0))
def test_thermal_decay_monotone(d1, d2):
    lo, hi = sorted((d1, d2))
    assert relative_temperature_rise(hi) <= relative_temperature_rise(lo) + 1e-12


@given(st.floats(0.0, 15.0), st.floats(0.0, 60.0))
def test_thermal_rise_linear_in_power(power, distance):
    full = temperature_rise_c(power, distance)
    half = temperature_rise_c(power / 2, distance)
    assert full == pytest.approx(2 * half, abs=1e-12)


# --- TDMA schedule -----------------------------------------------------------------


@given(st.integers(1, 12), st.integers(1, 4))
def test_tdma_round_robin_is_fair(n_nodes, slots_per_node):
    schedule = TDMASchedule.round_robin(TDMAConfig(), n_nodes, slots_per_node)
    owners = schedule.slot_owners
    assert len(owners) == n_nodes * slots_per_node
    assert all(owners.count(n) == slots_per_node for n in range(n_nodes))


# --- AES --------------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(st.binary(min_size=16, max_size=16), st.binary(min_size=16, max_size=16))
def test_aes_roundtrip_any_key_block(key, block):
    cipher = AES128(key)
    sealed = cipher.encrypt_block(block)
    assert decrypt_block(sealed, cipher._round_keys) == block


@settings(max_examples=20, deadline=None)
@given(st.binary(max_size=200), st.binary(min_size=8, max_size=8))
def test_aes_ctr_is_length_preserving_involution(data, nonce):
    cipher = AES128(bytes(range(16)))
    encrypted = cipher.ctr_encrypt(data, nonce)
    assert len(encrypted) == len(data)
    assert cipher.ctr_encrypt(encrypted, nonce) == data


# --- stimulation --------------------------------------------------------------------


# --- LSH determinism across processes ----------------------------------------------


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31), st.integers(0, 1000))
def test_lsh_same_seed_same_hash(seed, data_seed):
    rng = np.random.default_rng(data_seed)
    window = rng.normal(size=120).cumsum()
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(lsh, "HASH_SEED", seed)
        a = LSHFamily.for_measure("dtw")
        b = LSHFamily.for_measure("dtw")
    assert a.hash_window(window) == b.hash_window(window)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 1000))
def test_lsh_match_is_reflexive_and_symmetric(data_seed):
    rng = np.random.default_rng(data_seed)
    family = LSHFamily.for_measure("dtw")
    w1 = rng.normal(size=120).cumsum()
    w2 = rng.normal(size=120).cumsum()
    s1, s2 = family.hash_window(w1), family.hash_window(w2)
    assert family.matches(s1, s1)
    assert family.matches(s1, s2) == family.matches(s2, s1)
