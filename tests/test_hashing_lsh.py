"""Tests for the LSH family, EMD hash, and collision checking."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.hashing.collision import CollisionChecker, HashRecord, RecentHashStore
from repro.hashing.emd_hash import EMDHash
from repro.hashing.lsh import LSHConfig, LSHFamily, MEASURE_PRESETS
from repro.similarity.measures import get_measure
from tests import ccheck_oracle


@pytest.fixture()
def family():
    return LSHFamily.for_measure("dtw")


class TestLSHConfig:
    def test_presets_exist_for_all_measures(self):
        assert set(MEASURE_PRESETS) == {"dtw", "euclidean", "xcor", "emd"}

    def test_hash_bytes(self):
        config = LSHConfig(n_components=12, bits=4)
        assert config.hash_bytes == 6

    def test_bad_measure_rejected(self):
        with pytest.raises(ConfigurationError):
            LSHConfig(measure="cosine")

    def test_min_matching_bounds(self):
        with pytest.raises(ConfigurationError):
            LSHConfig(n_components=4, min_matching=5)

    def test_for_measure_overrides(self):
        fam = LSHFamily(replace(MEASURE_PRESETS["dtw"], ngram=6))
        assert fam.config.ngram == 6


class TestLSHFamily:
    def test_deterministic(self, family, rng):
        w = rng.normal(size=120)
        assert family.hash_window(w) == family.hash_window(w)

    def test_same_seed_means_cross_node_compatible(self, rng):
        w = rng.normal(size=120)
        a = LSHFamily.for_measure("dtw")
        b = LSHFamily.for_measure("dtw")
        assert a.hash_window(w) == b.hash_window(w)

    def test_similar_windows_collide(self, family, rng):
        w = rng.normal(size=120).cumsum()  # smooth-ish signal
        shifted = 0.9 * np.roll(w, 3) + 0.01 * w.std() * rng.normal(size=120)
        assert family.matches(family.hash_window(w), family.hash_window(shifted))

    def test_unrelated_windows_usually_do_not_collide(self, family, rng):
        hits = 0
        for _ in range(20):
            a = rng.normal(size=120).cumsum()
            b = rng.normal(size=120).cumsum()
            if family.matches(family.hash_window(a), family.hash_window(b)):
                hits += 1
        assert hits <= 6

    def test_hash_is_much_smaller_than_signal(self, family):
        # the paper's core claim: hashes ~100x smaller than 240 B signals
        assert family.config.hash_bytes <= 6

    def test_pack_unpack_roundtrip(self, family, rng):
        sig = family.hash_window(rng.normal(size=120))
        assert family.unpack(family.pack(sig)) == sig

    def test_unpack_wrong_length_rejected(self, family):
        with pytest.raises(ConfigurationError):
            family.unpack(b"\x00")

    def test_hash_channels(self, family, rng):
        sigs = family.hash_channels(rng.normal(size=(4, 120)))
        assert len(sigs) == 4

    def test_signature_width_mismatch_rejected(self, family):
        with pytest.raises(ConfigurationError):
            family.matches((1, 2), (1, 2, 3))

    def test_2d_input_rejected(self, family):
        with pytest.raises(ConfigurationError):
            family.hash_window(np.zeros((2, 120)))


def _collide(hasher: EMDHash, a: np.ndarray, b: np.ndarray) -> bool:
    """OR-construction match: any signature component equal."""
    sig_a, sig_b = hasher.hash_windows(np.stack([a, b]))
    return bool((sig_a == sig_b).any())


class TestEMDHash:
    def test_similar_histogram_shapes_collide(self, rng):
        hasher = EMDHash()
        w = np.sin(np.linspace(0, 12, 120))
        near = 0.8 * np.roll(w, 5) + 0.02 * rng.normal(size=120)
        assert _collide(hasher, w, near)

    def test_constant_windows_collide_at_any_level(self):
        # EMD between two constant windows is 0 under the z-scoring
        # comparator, so their hashes must agree whatever the level
        hasher = EMDHash()
        flat, raised = np.zeros(120), np.full(120, 100.0)
        assert get_measure("emd")(flat, raised) == 0.0
        sig_flat, sig_raised = hasher.hash_windows(np.stack([flat, raised]))
        assert sig_flat.tolist() == sig_raised.tolist()
        assert _collide(hasher, flat, raised)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            EMDHash(n_bins=1)
        with pytest.raises(ConfigurationError):
            EMDHash(bucket_width=0.0)
        with pytest.raises(ConfigurationError):
            EMDHash(n_components=0)

    def test_signature_length(self):
        hasher = EMDHash(n_components=3)
        window = np.sin(np.arange(120.0))
        assert hasher.hash_windows(window[None]).shape == (1, 3)


class TestRecentHashStore:
    def test_recent_respects_horizon(self):
        store = RecentHashStore(horizon_ms=10.0)
        store.add_batch(0.0, [(1,)])
        store.add_batch(5.0, [(2,)])
        store.add_batch(20.0, [(3,)])
        recent = store.recent(now_ms=21.0)
        assert [r.signature for r in recent] == [(3,)]
        recent = store.recent(now_ms=12.0)
        assert [r.signature for r in recent] == [(2,)]

    def test_out_of_order_rejected(self):
        store = RecentHashStore()
        store.add_batch(5.0, [(1,)])
        with pytest.raises(ConfigurationError):
            store.add_batch(1.0, [(2,), (3,)])
        assert len(store) == 1

    def test_batch_records_one_per_electrode(self):
        store = RecentHashStore()
        store.add_batch(2.0, [(4, 5), (6, 7)])
        store.add_batch(2.0, [(8, 9)])
        store.add_batch(3.0, [])
        assert store.recent(now_ms=3.0) == [
            HashRecord(2.0, 0, (4, 5)),
            HashRecord(2.0, 1, (6, 7)),
            HashRecord(2.0, 0, (8, 9)),
        ]

    def test_evict(self):
        store = RecentHashStore()
        store.add_batch(0.0, [(1,), (2,)])
        store.add_batch(10.0, [(3,)])
        assert store.evict_before(5.0) == 2
        assert len(store) == 1


class TestCollisionChecker:
    def test_finds_matches(self):
        checker = CollisionChecker(min_matching=1)
        local = [HashRecord(0.0, 3, (7, 9))]
        matches = checker.check([(7, 1), (2, 2)], local)
        assert len(matches) == 1
        assert matches[0][0] == 0
        assert matches[0][1].electrode == 3

    def test_min_matching_two(self):
        checker = CollisionChecker(min_matching=2)
        local = [HashRecord(0.0, 0, (7, 9))]
        assert not checker.check([(7, 1)], local)
        assert checker.check([(7, 9)], local)

    def test_empty_inputs(self):
        checker = CollisionChecker()
        assert checker.check([], []) == []

    def test_mixed_widths_rejected(self):
        checker = CollisionChecker()
        with pytest.raises(ConfigurationError):
            checker.check([(1, 2), (1,)], [HashRecord(0.0, 0, (1, 2))])

    def test_local_width_mismatch_rejected(self):
        checker = CollisionChecker()
        local = [HashRecord(0.0, 0, (1, 2)), HashRecord(0.0, 1, (1,))]
        with pytest.raises(ConfigurationError):
            checker.check([(1, 2)], local)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n_components=st.integers(1, 4))
    def test_matches_oracle_in_order(self, data, n_components):
        # a four-value alphabet makes duplicate components common
        signature = st.tuples(*[st.integers(0, 3)] * n_components)
        received = data.draw(st.lists(signature, max_size=8))
        local = [
            HashRecord(float(t), electrode, sig)
            for t, (electrode, sig) in enumerate(
                data.draw(
                    st.lists(st.tuples(st.integers(0, 7), signature),
                             max_size=12)
                )
            )
        ]
        min_matching = data.draw(st.integers(1, n_components))
        assert CollisionChecker(min_matching).check(received, local) == (
            ccheck_oracle.check(received, local, min_matching)
        )

    def test_matches_agree_with_brute_force(self, rng):
        checker = CollisionChecker(min_matching=2)
        received = [tuple(rng.integers(0, 4, 3)) for _ in range(20)]
        local = [
            HashRecord(float(i), i, tuple(rng.integers(0, 4, 3)))
            for i in range(30)
        ]
        fast = {(i, r.time_ms) for i, r in checker.check(received, local)}
        brute = set()
        for i, sig in enumerate(received):
            for record in local:
                agreeing = sum(
                    1 for a, b in zip(sig, record.signature) if a == b
                )
                if agreeing >= 2:
                    brute.add((i, record.time_ms))
        assert fast == brute
