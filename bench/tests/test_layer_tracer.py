"""Self-tests of the benchmark's layer tracer.

Run from the repository root with ``python -m pytest bench/tests``.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import types

import pytest

import layer_tracer
import workloads
from layer_tracer import ENTRY_POINTS, Count, EntryPoint, LayerTracer


class FakeClock:
    """A clock the fake entry points advance by known durations."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def spend(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def fake_modules():
    """Register throwaway ``repro.*`` modules; remove them afterwards."""
    created: list[str] = []

    def make(name: str, **attributes) -> types.ModuleType:
        module = types.ModuleType(f"repro.{name}")
        vars(module).update(attributes)
        sys.modules[module.__name__] = module
        created.append(module.__name__)
        return module

    yield make
    for name in created:
        del sys.modules[name]


def _package_modules():
    return [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def _function_entries():
    return [e for e in ENTRY_POINTS if "." not in e.qualname]


# -- exclusive-time arithmetic ---------------------------------------------------


def test_self_time_subtracts_nested_spans(fake_modules):
    clock = FakeClock()
    inner_mod = fake_modules("fake_inner")
    outer_mod = fake_modules("fake_outer")

    def inner(seconds):
        clock.spend(seconds)
        return seconds

    def helper():  # same layer as outer: its span nests inside outer's
        clock.spend(0.25)
        return inner_mod.inner(2.0)

    def outer():
        clock.spend(1.0)
        outer_mod.helper()
        clock.spend(0.5)
        return "done"

    inner_mod.inner = inner
    outer_mod.helper, outer_mod.outer = helper, outer
    tracer = LayerTracer(
        [
            EntryPoint("repro.fake_outer", "outer"),
            EntryPoint("repro.fake_outer", "helper"),
            EntryPoint("repro.fake_inner", "inner",
                       (Count("fake.seconds", lambda result, args: result),)),
        ],
        clock=clock,
    )
    with tracer:
        assert outer_mod.outer() == "done"
        clock.spend(4.0)  # outside every span: the caller's share

    assert tracer.self_s == {"fake_outer": 1.75, "fake_inner": 2.0}
    assert tracer.calls == {"fake_outer": 2, "fake_inner": 1}
    assert tracer.covered_s == 3.75
    assert tracer.site_s["repro.fake_outer.outer"] == 3.75
    assert tracer.site_s["repro.fake_outer.helper"] == 2.25
    assert tracer.site_self_s == {
        "repro.fake_outer.outer": 1.5,
        "repro.fake_outer.helper": 0.25,
        "repro.fake_inner.inner": 2.0,
    }
    assert tracer.counts == {"fake.seconds": 2.0}
    assert sum(tracer.self_s.values()) == tracer.covered_s


def test_outer_counts_skip_calls_from_the_same_layer(fake_modules):
    module = fake_modules("fake_hash")
    module.batch = lambda rows: [module.one(row) for row in rows]
    module.one = lambda row: row
    count = Count("fake.rows", lambda result, args: len(result), outer=True)
    tracer = LayerTracer([
        EntryPoint("repro.fake_hash", "batch", (count,)),
        EntryPoint("repro.fake_hash", "one",
                   (Count("fake.rows", outer=True),)),
    ])
    with tracer:
        module.batch([1, 2, 3])
        module.one(4)
    assert tracer.counts["fake.rows"] == 4
    assert tracer.calls["fake_hash"] == 5


def test_exception_unwinds_the_span_stack(fake_modules):
    clock = FakeClock()
    module = fake_modules("fake_fail")

    def inner():
        clock.spend(1.0)
        raise ValueError("boom")

    def outer():
        clock.spend(2.0)
        module.inner()

    module.inner, module.outer = inner, outer
    tracer = LayerTracer(
        [EntryPoint("repro.fake_fail", "outer"),
         EntryPoint("repro.fake_fail", "inner")],
        clock=clock,
    )
    with tracer:
        with pytest.raises(ValueError, match="boom"):
            module.outer()
        assert tracer._stack == []
        assert module.outer.__wrapped__ is outer
        clock.spend(1.0)
    assert tracer.self_s["fake_fail"] == 3.0
    assert tracer.covered_s == 3.0
    assert tracer.calls["fake_fail"] == 2
    assert tracer.counts == {}


# -- staticmethod / classmethod --------------------------------------------------


def test_static_and_class_methods_keep_their_binding(fake_modules):
    class Thing:
        scale = 3

        @staticmethod
        def double(x):
            return 2 * x

        @classmethod
        def scaled(cls, x):
            return cls.scale * x

        def plain(self, x):
            return x + 1

    fake_modules("fake_thing", Thing=Thing)
    originals = {name: vars(Thing)[name] for name in ("double", "scaled", "plain")}
    tracer = LayerTracer(
        EntryPoint("repro.fake_thing", f"Thing.{name}") for name in originals
    )
    with tracer:
        assert isinstance(vars(Thing)["double"], staticmethod)
        assert isinstance(vars(Thing)["scaled"], classmethod)
        assert vars(Thing)["double"] is not originals["double"]
        assert Thing.double(4) == 8 and Thing().double(5) == 10
        assert Thing.scaled(2) == 6 and Thing().scaled(1) == 3
        assert Thing().plain(1) == 2
    assert tracer.calls["fake_thing"] == 5
    for name, original in originals.items():
        assert vars(Thing)[name] is original


def test_inherited_method_is_rejected(fake_modules):
    class Base:
        def run(self):
            return 1

    class Child(Base):
        pass

    fake_modules("fake_child", Child=Child)
    tracer = LayerTracer([EntryPoint("repro.fake_child", "Child.run")])
    with pytest.raises(AttributeError):
        tracer.install()
    assert not tracer.installed
    assert "run" not in vars(Child)


# -- the real entry points -------------------------------------------------------


def _snapshot():
    """Every attribute of every ``repro`` module and traced class."""
    for entry in ENTRY_POINTS:
        importlib.import_module(entry.module)
    snap = {}
    for module in _package_modules():
        for attribute, value in vars(module).items():
            snap[(module.__name__, attribute)] = value
    for entry in ENTRY_POINTS:
        owner, _, attribute = entry.qualname.rpartition(".")
        if owner:
            cls = getattr(importlib.import_module(entry.module), owner)
            snap[(entry.site, attribute)] = vars(cls)[attribute]
    return snap


def test_function_aliases_are_rebound_in_every_repro_module():
    originals = {
        entry.site: getattr(importlib.import_module(entry.module),
                            entry.qualname)
        for entry in _function_entries()
    }
    holders = {
        site: [
            (module, attribute)
            for module in _package_modules()
            for attribute, value in vars(module).items()
            if value is original
        ]
        for site, original in originals.items()
    }
    # the aliases this test exists for: nvm's ``from ... import decode_page``
    nvm = importlib.import_module("repro.storage.nvm")
    assert (nvm, "decode_page") in holders["repro.recovery.ecc.decode_page"]

    with LayerTracer(ENTRY_POINTS):
        for site, places in holders.items():
            for module, attribute in places:
                wrapper = vars(module)[attribute]
                assert wrapper is not originals[site], (module, attribute)
                assert wrapper.__wrapped__ is originals[site]
    for site, places in holders.items():
        for module, attribute in places:
            assert vars(module)[attribute] is originals[site]


def test_uninstall_restores_every_original_by_identity():
    before = _snapshot()
    tracer = LayerTracer(ENTRY_POINTS).install()
    changed = [key for key, value in _snapshot().items()
               if before.get(key) is not value]
    assert len(changed) >= len(ENTRY_POINTS)
    tracer.uninstall()
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_every_entry_point_has_a_known_layer():
    assert {entry.layer for entry in ENTRY_POINTS} == set(layer_tracer.LAYERS)
    for entry in ENTRY_POINTS:
        target = importlib.import_module(entry.module)
        for part in entry.qualname.split("."):
            target = getattr(target, part)
        assert callable(target), entry.site


def test_workloads_hold_no_aliases_of_traced_functions():
    # the benchmark must reach entry points through their modules, or the
    # tracer never sees the calls (a prototype lost ``eval`` this way)
    originals = [
        getattr(importlib.import_module(e.module), e.qualname)
        for e in _function_entries()
    ]
    held = [
        name for name, value in vars(workloads).items()
        if any(value is original for original in originals)
    ]
    assert held == []


def test_eval_calls_through_a_module_are_traced():
    import repro.eval.application as application

    tracer = LayerTracer(ENTRY_POINTS)
    with tracer:
        series = application.fig9a(node_counts=(1,))
    assert len(series) == 3
    assert tracer.calls["eval"] == 1
    assert tracer.calls["scheduler"] == 3
    assert tracer.counts["scheduler.solves"] == 3


def test_wrappers_keep_signatures():
    import repro.recovery.ecc as ecc

    plain = inspect.signature(ecc.decode_page)
    with LayerTracer(ENTRY_POINTS):
        assert inspect.signature(ecc.decode_page) == plain


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_session_digest_equals_untraced(name):
    workload = workloads.WORKLOADS[name]
    seed = 0

    def session(tracer=None):
        inputs = workload.prepare(seed)
        if tracer is None:
            outputs = workload.run(inputs)
        else:
            with tracer:
                outputs = workload.run(inputs)
        return workloads.digest(workload.summarize(outputs)[1])

    tracer = LayerTracer(ENTRY_POINTS)
    traced = session(tracer)
    assert session() == traced
    assert tracer.covered_s > 0
    assert traced == workloads.load_expected()[name][seed]


# -- sessions and golden digests ---------------------------------------------------


def test_a_run_times_a_fixed_list_of_sessions_from_its_seed():
    for workload in workloads.WORKLOADS.values():
        seeds = workloads.session_seeds(workload, 7, 15)
        assert len(seeds) >= workloads.MIN_SESSIONS
        assert list(seeds) == list(range(7, 7 + len(seeds)))
    sweep = workloads.WORKLOADS["sweep"]
    assert len(workloads.session_seeds(sweep, 0, 60)) == round(
        60 / sweep.session_s
    )
    assert workloads.session_seeds(sweep, 500, 15)[0] == 500


def test_golden_digests_cover_every_workload():
    assert {
        name: len(digests)
        for name, digests in workloads.load_expected().items()
    } == {name: workloads.GOLDEN_SEEDS for name in workloads.WORKLOADS}


# -- metrics and comparison ------------------------------------------------------


def _fake_child(traced: bool) -> dict:
    session = {"seconds": 0.5, "slowdown": 1.25, "items": 10,
               "digest": "d", "ok": True}
    child = {
        "sessions": [session, dict(session, seconds=0.7)],
        "peak_rss_mb": 100.0,
        "setup_s": 1.0,
        "setup_slowdown": 1.0,
    }
    if traced:
        child["traced"] = [dict(session, seconds=0.55),
                           dict(session, seconds=0.75)]
        child["tracer"] = {
            "self_s": {"recovery.ecc": 1.0, "hashing": 0.2},
            "calls": {"recovery.ecc": 4, "hashing": 3},
            "site_s": {}, "site_calls": {},
            "site_self_s": {
                "repro.hashing.lsh.LSHFamily.hash_windows": 0.1,
                "repro.hashing.lsh.LSHFamily.matches_many": 0.1,
            },
            "counts": {"hashing.windows_hashed": 10},
            "covered_s": 1.2,
        }
    return child


def test_reported_metrics_match_benchmark_json():
    import json

    import run

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = run.end_to_end(_fake_child(False), [_fake_child(False)])
    layers = run.per_layer(_fake_child(True))
    for declared, reported in ((spec["end_to_end"], e2e),
                               (spec["per_layer"], layers)):
        assert [(m["name"], m["unit"]) for m in declared] == [
            (name, unit) for name, (_, unit) in reported.items()
        ]
    assert e2e["session_s_p50"][0] == pytest.approx(0.6 / 1.25)
    assert e2e["wall_s"][0] == pytest.approx(1.2 / 1.25)
    assert e2e["items_per_s"][0] == pytest.approx(20 / (1.2 / 1.25))
    assert layers["recovery.ecc.share"][0] == pytest.approx(1.0 / 1.3)
    assert layers["trace.overhead_pct"][0] == pytest.approx(100 * 0.1 / 1.2)
    # matching time (matches_many) is not hashing time
    assert layers["hashing.us_per_window"][0] == pytest.approx(
        0.1 / 1.25 / 10 * 1e6
    )


@pytest.mark.parametrize("base, new, word", [
    ([1.0, 1.0, 1.0], [1.05, 1.05, 1.05], "unchanged"),
    ([1.0, 1.0, 1.0], [1.3, 1.3, 1.3], "worse"),
    ([1.0, 1.0, 1.0], [0.7, 0.7, 0.7], "better"),
    # a gain smaller than the bound counts once it wins 9/10 of the pairs
    # by more than the base quartile distance
    ([1.0, 1.01, 0.99, 1.0], [0.95, 0.95, 0.95, 0.95], "better"),
    ([1.0, 1.0, 1.0, 1.0], [0.9, 0.9, 0.9, 1.1], "unchanged"),
    ([0.5, 1.0, 1.5], [1.1, 1.1, 1.1], "unresolved"),
    ([0.5, 1.0, 1.5], [0.1, 0.2, 0.3], "better"),
])
def test_compare_verdicts_for_a_lower_is_better_metric(base, new, word):
    import compare

    assert compare.verdict(base, new, 0.2, lower_is_better=True)[1] == word
