"""Batched query hot path: kernel equivalence, signature cache, engine.

The batched hash kernel (`hash_windows`) and the cached query path
promise *element-identical* results to the scalar reference
implementations — these tests hold them to it, property-based where the
input space is wide.  The min-hash reference is the one-pass sampler in
`tests/minhash_oracle.py` (EMD families: the scalar EMDH arithmetic in
`tests/emd_oracle.py`); the query-scan reference is the
window-at-a-time scan in `tests/query_oracle.py`.  The DTW kernel is
checked against `tests/dtw_oracle.py` in `tests/test_similarity.py`.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.queries import (
    TEMPLATE_MEMO_SIZE,
    QueryEngine,
    QuerySpec,
)
from repro.errors import ConfigurationError
from repro.hashing import minhash
from repro.hashing.lsh import (
    MEASURE_PRESETS,
    SUPPORTED_MEASURES,
    LSHConfig,
    LSHFamily,
)
from repro.similarity.dtw import DTW_BAND
from repro.storage.controller import StorageController
from repro.storage.nvm import PAGE_BYTES, NVMDevice
from tests import minhash_oracle
from tests.dtw_oracle import dtw_distance
from tests.minhash_oracle import oracle_hash_window
from tests.query_oracle import oracle_run

CAPACITY = 16 * 1024 * 1024


def _windows(seed: int, n: int, length: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    out = rng.standard_normal((n, length)) * 200
    if n > 1:
        out[0] = 0.0  # degenerate: zero variance
    return out


# --- kernel equivalence: the min-hash kernel == the scalar oracle -------------

SKETCH_MEASURES = tuple(m for m in SUPPORTED_MEASURES if m != "emd")


def _family(measure: str, ngram: int) -> LSHFamily:
    """The measure's preset family at another n-gram size."""
    return LSHFamily(dataclasses.replace(MEASURE_PRESETS[measure], ngram=ngram))


def _assert_matches_oracle(family: LSHFamily, batch: np.ndarray) -> None:
    expected = [oracle_hash_window(family, row) for row in batch]
    batched = family.hash_windows(batch)
    assert batched.shape == (len(batch), family.config.n_components)
    assert [tuple(sig) for sig in batched.tolist()] == expected
    assert [family.hash_window(row) for row in batch] == expected


class TestHashBatchEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        measure=st.sampled_from(SUPPORTED_MEASURES),
        n=st.integers(1, 6),
        extra=st.integers(0, 80),
    )
    def test_hash_windows_matches_scalar(self, seed, measure, n, extra):
        family = LSHFamily.for_measure(measure)
        length = family.config.sketch_window + extra if measure != "emd" \
            else 2 + extra
        _assert_matches_oracle(family, _windows(seed, n, length))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5))
    def test_quantised_windows_match_scalar(self, seed, n):
        # the signature-cache input: int16 round-tripped samples
        family = LSHFamily.for_measure("dtw")
        _assert_matches_oracle(
            family, _windows(seed, n, 120).astype("<i2").astype(float)
        )

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        measure=st.sampled_from(SKETCH_MEASURES),
        ngram=st.integers(1, 16),
        n=st.integers(1, 4),
    )
    def test_every_ngram_size_matches_oracle(self, seed, measure, ngram, n):
        # 13..16-grams have more than 4 096 possible shingle values
        family = _family(measure, ngram)
        length = family.config.sketch_window + ngram + 40
        _assert_matches_oracle(family, _windows(seed, n, length))

    @settings(max_examples=20, deadline=None)
    @given(
        measure=st.sampled_from(SKETCH_MEASURES),
        level=st.floats(-1e4, 1e4, allow_nan=False),
        ngram=st.integers(1, 12),
    )
    def test_constant_rows_match_oracle(self, measure, level, ngram):
        family = _family(measure, ngram)
        length = family.config.sketch_window + 60
        batch = np.stack([np.full(length, level), np.zeros(length)])
        _assert_matches_oracle(family, batch)

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        measure=st.sampled_from(SKETCH_MEASURES),
        ngram=st.integers(2, 16),
        data=st.data(),
    )
    def test_sketch_shorter_than_ngram(self, seed, measure, ngram, data):
        family = _family(measure, ngram)
        # a differenced sketch has ``length - sketch_window`` bits
        short = data.draw(st.integers(0, ngram - 1))
        batch = _windows(seed, 3, family.config.sketch_window + short)
        _assert_matches_oracle(family, batch)
        assert not family.hash_windows(batch).any()

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        measure=st.sampled_from(SKETCH_MEASURES),
        ngram=st.integers(1, 16),
        copies=st.integers(2, 4),
    )
    def test_duplicate_rows_match_oracle(self, seed, measure, ngram, copies):
        family = _family(measure, ngram)
        rows = _windows(seed, 2, family.config.sketch_window + 50)
        batch = np.concatenate([rows] * copies)
        _assert_matches_oracle(family, batch)

    def test_ties_break_toward_the_smallest_value(self, monkeypatch):
        # real draws almost never tie; coarse ones tie constantly, and the
        # scalar sampler keeps the first of equal scores in value order
        def coarse(value, seed):
            return ((value + seed) % 3 + 1) / 4

        monkeypatch.setattr(minhash, "_uniform01", coarse)
        monkeypatch.setattr(minhash_oracle, "_uniform01", coarse)
        monkeypatch.setattr(minhash, "_TABLES", {})
        for ngram in (1, 3, 8, 12):
            family = _family("dtw", ngram)
            _assert_matches_oracle(family, _windows(ngram, 6, 120))

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        ngram=st.integers(1, 16),
        n_a=st.integers(1, 4),
        n_b=st.integers(1, 4),
    )
    def test_seed_table_cache_is_order_independent(self, seed, ngram, n_a, n_b):
        first = _family("dtw", ngram)
        second = _family("dtw", ngram)
        batch_a = _windows(seed, n_a, 120)
        batch_b = _windows(seed + 1, n_b, 120)
        minhash._TABLES.clear()
        a_then_b = [first.hash_windows(batch_a), first.hash_windows(batch_b)]
        minhash._TABLES.clear()
        b_then_a = [second.hash_windows(batch_b), second.hash_windows(batch_a)]
        # and once the table holds every value of both batches
        warm = [second.hash_windows(batch_a), first.hash_windows(batch_b)]
        for sigs in (b_then_a[::-1], warm):
            assert all(np.array_equal(x, y) for x, y in zip(a_then_b, sigs))

    def test_matches_many_matches_scalar(self, rng):
        family = LSHFamily.for_measure("dtw")
        signatures = family.hash_windows(rng.standard_normal((20, 120)))
        probe = family.hash_window(rng.standard_normal(120))
        batched = family.matches_many(signatures, probe)
        scalar = [
            family.matches(tuple(int(c) for c in row), probe)
            for row in signatures
        ]
        assert batched.tolist() == scalar

    @settings(max_examples=60, deadline=None)
    @given(
        min_matching=st.integers(1, 12),
        n=st.integers(0, 16),
        alphabet=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_many_row_wise_matches_scalar(
        self, min_matching, n, alphabet, seed
    ):
        """An ``(n, k)`` probe compares row by row, as ``matches`` on
        each pair does (a small alphabet makes both outcomes common)."""
        family = LSHFamily(LSHConfig(min_matching=min_matching))
        rng = np.random.default_rng(seed)
        firsts = rng.integers(0, alphabet, size=(n, 12))
        seconds = rng.integers(0, alphabet, size=(n, 12))
        batched = family.matches_many(firsts, seconds)
        scalar = [
            family.matches(tuple(a.tolist()), tuple(b.tolist()))
            for a, b in zip(firsts, seconds)
        ]
        assert batched.tolist() == scalar

    def test_matches_many_rejects_width_mismatch(self):
        family = LSHFamily.for_measure("dtw")
        with pytest.raises(ConfigurationError):
            family.matches_many(np.zeros((2, 3), dtype=int), (0,) * 12)
        with pytest.raises(ConfigurationError):
            family.matches_many(np.zeros((2, 12), dtype=int),
                                np.zeros((3, 12), dtype=int))

    def test_rejects_non_2d(self):
        family = LSHFamily.for_measure("dtw")
        with pytest.raises(ConfigurationError):
            family.hash_windows(np.zeros(120))


# --- the hash-on-write signature cache ----------------------------------------


def _cached_controller(seed: int = 0, n_windows: int = 3, n_electrodes: int = 2):
    lsh = LSHFamily.for_measure("dtw")
    controller = StorageController(
        device=NVMDevice(capacity_bytes=CAPACITY), lsh=lsh
    )
    rng = np.random.default_rng(seed)
    for w in range(n_windows):
        controller.store_channel_windows(
            w, (rng.standard_normal((n_electrodes, 120)) * 200).round()
        )
    return controller, lsh


class TestSignatureCache:
    def test_hash_on_write_matches_read_back(self):
        controller, lsh = _cached_controller()
        for key in controller.stored_windows():
            samples = controller.read_window(*key)
            assert controller.window_signature(*key) == lsh.hash_window(
                samples.astype(float)
            )

    def test_rewrite_updates_signature(self, rng):
        controller, lsh = _cached_controller()
        fresh = (rng.standard_normal(120) * 200).round()
        controller.store_window(0, 0, fresh)
        assert controller.window_signature(0, 0) == lsh.hash_window(
            fresh.astype("<i2").astype(float)
        )

    def test_no_lsh_means_no_signatures(self, rng):
        controller = StorageController(
            device=NVMDevice(capacity_bytes=CAPACITY)
        )
        controller.store_window(0, 0, (rng.standard_normal(120) * 200).round())
        assert controller.window_signature(0, 0) is None

    def test_lose_sram_invalidates(self):
        controller, _ = _cached_controller()
        controller.lose_sram()
        assert controller.window_signature(0, 0) is None

    def test_invalidate_signatures(self):
        controller, _ = _cached_controller()
        controller.invalidate_signatures()
        assert all(
            controller.window_signature(*key) is None
            for key in controller.stored_windows()
        )

    def test_recover_restores_signatures_and_digest(self):
        controller, _ = _cached_controller()
        digest = controller.state_digest()
        expected = {
            key: controller.window_signature(*key)
            for key in controller.stored_windows()
        }
        controller.lose_sram()
        controller.recover()
        assert controller.state_digest() == digest
        assert {
            key: controller.window_signature(*key)
            for key in controller.stored_windows()
        } == expected

    def test_recover_without_lsh_replays_journaled_signatures(self):
        # a failover replica replays the journal without holding the hash
        # family — signatures must come from the records, never a rehash
        controller, _ = _cached_controller()
        replica = StorageController(device=controller.device)
        replica.journal = controller.journal
        replica.recover()
        assert replica.state_digest() == controller.state_digest()

    def test_checkpoint_roundtrips_signatures(self):
        controller, _ = _cached_controller()
        controller.checkpoint()
        digest = controller.state_digest()
        controller.lose_sram()
        report = controller.recover()
        assert report.checkpoint_used
        assert controller.state_digest() == digest

    def test_recover_drops_signatures_on_poisoned_pages(self):
        # windows big enough that each starts on its own page
        lsh = LSHFamily.for_measure("dtw")
        controller = StorageController(
            device=NVMDevice(capacity_bytes=CAPACITY), lsh=lsh
        )
        rng = np.random.default_rng(0)
        for w in range(3):
            controller.store_window(
                0, w, (rng.standard_normal(3000) * 200).round()
            )
        key = controller.stored_windows()[0]
        page = controller._windows[key].address // PAGE_BYTES
        controller.device._poisoned.add(page)
        controller.lose_sram()
        controller.recover()
        assert controller.window_signature(*key) is None
        survivors = [
            k
            for k in controller.stored_windows()
            if controller._windows[k].address // PAGE_BYTES != page
        ]
        assert any(
            controller.window_signature(*k) is not None for k in survivors
        )


# --- engine equivalence: reference scan vs cold engine vs warm engine ---------


def _fleet(seed: int = 0, n_nodes: int = 3, with_cache: bool = True):
    lsh = LSHFamily.for_measure("dtw")
    rng = np.random.default_rng(seed)
    template = (rng.standard_normal(120).cumsum() * 300).round()
    controllers = []
    for node in range(n_nodes):
        controller = StorageController(
            device=NVMDevice(capacity_bytes=CAPACITY),
            lsh=lsh if with_cache else None,
        )
        for w in range(4):
            if node == 0 and w == 1:
                window = template + (5 * rng.standard_normal(120)).round()
            else:
                window = (rng.standard_normal(120).cumsum() * 300).round()
            controller.store_window(0, w, window)
            controller.store_window(1, w, window[::-1].copy())
        # a different geometry on one node exercises length grouping
        if node == 1:
            controller.store_window(0, 9, np.arange(60) * 7)
        controllers.append(controller)
    engine = QueryEngine(
        controllers,
        lsh,
        seizure_flags={0: {1, 2}, 1: {0}},
        dtw_threshold=20_000.0,
    )
    return engine, template


SPECS = [
    ("q1", QuerySpec("q1", 16.0), False),
    ("q2-hash", QuerySpec("q2", 16.0), True),
    ("q2-dtw", QuerySpec("q2", 16.0, use_hash=False), True),
    ("q3", QuerySpec("q3", 16.0), False),
]

#: the whole store, interior ranges, a one-window range, an empty range
WINDOW_RANGES = [(0, 10), (1, 3), (2, 3), (3, 9), (9, 10), (4, 4)]


def _invalidate(engine: QueryEngine) -> None:
    for controller in engine.controllers:
        controller.invalidate_signatures()


def _assert_engine_matches_oracle(engine, spec, window_range, **kwargs):
    """Warm engine, then cold engine, each == the reference scan."""
    reference = oracle_run(engine, spec, window_range, **kwargs)
    for _ in range(2):
        result = engine.run(spec, window_range, **kwargs)
        assert result.row_keys() == reference.row_keys()
        assert result.queried_nodes == reference.queried_nodes
        assert result.failed_nodes == reference.failed_nodes
        _invalidate(engine)


class TestEngineEquivalence:
    @pytest.mark.parametrize("label,spec,needs_template",
                             [(s[0], s[1], s[2]) for s in SPECS])
    def test_batched_equals_scalar(self, label, spec, needs_template):
        for window_range in WINDOW_RANGES:
            engine, template = _fleet()
            tpl = template if needs_template else None
            _assert_engine_matches_oracle(
                engine, spec, window_range, template=tpl
            )

    def test_reference_scan_finds_planted_match(self):
        engine, template = _fleet()
        for spec in (QuerySpec("q2", 16.0), QuerySpec("q2", 16.0,
                                                      use_hash=False)):
            result = oracle_run(engine, spec, (0, 10), template=template)
            assert (0, 0, 1) in [key[:3] for key in result.row_keys()]
            assert len(result.rows) < len(
                oracle_run(engine, QuerySpec("q3", 16.0), (0, 10)).rows
            )

    def test_dtw_threshold_is_inclusive(self):
        # a window whose cost equals the threshold exactly is a match
        spec = QuerySpec("q2", 16.0, use_hash=False)
        engine, template = _fleet()
        samples = engine.controllers[0].read_window(1, 2).astype(float)
        cost = dtw_distance(samples, template, DTW_BAND)
        for threshold in (cost, np.nextafter(cost, -np.inf)):
            tight = dataclasses.replace(engine, dtw_threshold=threshold)
            reference = oracle_run(tight, spec, (0, 10), template=template)
            keys = [key[:3] for key in reference.row_keys()]
            assert ((0, 1, 2) in keys) == (threshold == cost)
            assert tight.run(spec, (0, 10), template=template).row_keys() \
                == reference.row_keys()

    def test_warm_cache_equals_uncached_fleet(self):
        spec = QuerySpec("q2", 16.0)
        warm_engine, template = _fleet(with_cache=True)
        cold_engine, _ = _fleet(with_cache=False)
        warm = warm_engine.run(spec, (0, 10), template=template).row_keys()
        cold = cold_engine.run(spec, (0, 10), template=template).row_keys()
        assert warm == cold

    def test_identical_after_crash_and_recover(self):
        spec = QuerySpec("q2", 16.0)
        engine, template = _fleet()
        before = engine.run(spec, (0, 10), template=template).row_keys()
        for controller in engine.controllers:
            controller.lose_sram()
            controller.recover()
        assert engine.run(spec, (0, 10), template=template).row_keys() == before
        # and with the caches dropped outright (cold recompute path)
        _invalidate(engine)
        assert engine.run(spec, (0, 10), template=template).row_keys() == before

    def test_dead_nodes_and_row_order(self):
        engine, template = _fleet()
        result = engine.run(
            QuerySpec("q2", 16.0), (0, 10), template=template,
            dead_nodes={1},
        )
        assert result.failed_nodes == [1]
        assert result.degraded
        keys = [key[:3] for key in result.row_keys()]
        assert keys == sorted(keys)
        for label, spec, needs_template in SPECS:
            for dead in ({1}, {0, 2}, {0, 1, 2}):
                engine, template = _fleet()
                _assert_engine_matches_oracle(
                    engine, spec, (0, 10), dead_nodes=dead,
                    template=template if needs_template else None,
                )


# --- Q2 template signatures, memoised per engine --------------------------------


class TestTemplateMemo:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        steps=st.lists(
            st.tuples(st.integers(0, 2), st.booleans(), st.integers(0, 119)),
            min_size=1, max_size=12,
        ),
    )
    def test_memo_matches_hash_window(self, seed, steps):
        """Each call equals a fresh ``hash_window``, also after a pool
        template is changed in place between calls."""
        lsh = LSHFamily.for_measure("dtw")
        engine = QueryEngine([], lsh)
        rng = np.random.default_rng(seed)
        pool = [(rng.standard_normal(120).cumsum() * 300).round()
                for _ in range(3)]
        spec = QuerySpec("q2", 16.0)
        for index, mutate, sample in steps:
            template = pool[index]
            if mutate:
                template[sample:] += 250.0
            assert engine._template_signature(spec, template) \
                == lsh.hash_window(template)
        assert len(engine._template_sigs) <= TEMPLATE_MEMO_SIZE

    def test_memo_is_bounded_first_in_first_out(self):
        lsh = LSHFamily.for_measure("dtw")
        engine = QueryEngine([], lsh)
        spec = QuerySpec("q2", 16.0)
        templates = [np.arange(120.0) * k for k in range(TEMPLATE_MEMO_SIZE + 3)]
        for template in templates:
            engine._template_signature(spec, template)
        assert len(engine._template_sigs) == TEMPLATE_MEMO_SIZE
        assert (templates[0].shape, templates[0].tobytes()) \
            not in engine._template_sigs
        assert engine._template_signature(spec, templates[0]) \
            == lsh.hash_window(templates[0])
