"""Tests for the scheduler, checked against ``linprog`` on the oracle's
LP assembly and the closed-form throughput oracle."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from repro.errors import SchedulingError
from repro.eval.application import (
    FIG9_NODE_COUNTS,
    FIG9A_WEIGHTS,
    SPIKES_PER_ELECTRODE_HZ,
    spike_sorting_rate_per_node,
)
from repro.network.tdma import TDMAConfig
from repro.scheduler.constraints import NETWORK_UTILISATION_CAP, VERIFY_TOL
from repro.scheduler.ilp import Flow, SchedulerProblem, max_throughput_mbps
from repro.scheduler.model import (
    dtw_similarity_task,
    hash_similarity_task,
    mi_kf_task,
    mi_nn_task,
    mi_svm_task,
    seizure_detection_task,
    spike_sorting_task,
)
from repro.telemetry import Telemetry
from repro.units import ELECTRODES_PER_NODE
from tests.lp_oracle import linprog_electrodes, lp_program
from tests.throughput_oracle import analytic_electrodes, analytic_throughput_mbps

SRC = str(Path(__file__).resolve().parent.parent / "src")

ALL_TASKS = (
    seizure_detection_task,
    spike_sorting_task,
    lambda: hash_similarity_task("all_all"),
    lambda: hash_similarity_task("one_all"),
    lambda: dtw_similarity_task("all_all"),
    lambda: dtw_similarity_task("one_all"),
    mi_svm_task,
    mi_nn_task,
    mi_kf_task,
)


class TestAgreementWithClosedForm:
    @pytest.mark.parametrize("task_factory", ALL_TASKS)
    @pytest.mark.parametrize("n_nodes", [1, 6, 16])
    def test_lp_matches_analytical(self, task_factory, n_nodes):
        """The LP's single-flow optimum equals min of the analytic caps."""
        task = task_factory()
        lp = max_throughput_mbps(task, n_nodes, 15.0)
        closed = analytic_throughput_mbps(task, n_nodes, 15.0)
        assert lp == pytest.approx(closed, rel=0.02)

    @pytest.mark.parametrize("power", [6.0, 9.0, 15.0])
    def test_lp_matches_analytical_across_power(self, power):
        task = seizure_detection_task()
        assert max_throughput_mbps(task, 1, power) == pytest.approx(
            analytic_throughput_mbps(task, 1, power), rel=0.02
        )

    def test_spike_sorting_rate_is_the_lp_allocation(self):
        """§6.3's sorting rate reads the one-node LP, not a closed form."""
        task = spike_sorting_task()
        for power in np.arange(6.0, 20.0 + 1e-9, 0.5):
            allocation = SchedulerProblem(
                n_nodes=1, flows=[Flow(task)], power_budget_mw=float(power)
            ).solve().allocations[0]
            rate = spike_sorting_rate_per_node(float(power))
            assert rate == pytest.approx(
                allocation.electrodes_per_node * SPIKES_PER_ELECTRODE_HZ,
                rel=1e-12,
            )
            # linear and power-bound: the LP optimum is the closed form's
            assert rate == pytest.approx(
                analytic_electrodes(task, 1, float(power)).electrodes
                * SPIKES_PER_ELECTRODE_HZ,
                rel=1e-12,
            )


class TestPaperShapes:
    def test_detection_falls_superlinearly_with_power(self):
        """§6.2: detection throughput falls quadratically (XCOR pairs)."""
        task = seizure_detection_task()
        t15 = max_throughput_mbps(task, 1, 15.0)
        t6 = max_throughput_mbps(task, 1, 6.0)
        # a linear task would drop ~2.6x; the pairwise one drops less
        # than linearly in the electrode count sense: T ~ sqrt(P)
        assert 65 <= t15 <= 90  # paper: 79 Mbps
        assert t15 / t6 < (15.0 - 1.4) / (6.0 - 1.4)

    def test_sorting_falls_linearly_with_power(self):
        task = spike_sorting_task()
        t15 = max_throughput_mbps(task, 1, 15.0)
        t6 = max_throughput_mbps(task, 1, 6.0)
        assert 100 <= t15 <= 140  # paper: 118 Mbps
        assert t15 / t6 == pytest.approx((15.0) / (6.0), rel=0.35)

    def test_hash_all_all_peaks_near_6_nodes(self):
        task_factory = lambda: hash_similarity_task("all_all")
        series = {
            n: max_throughput_mbps(task_factory(), n, 15.0)
            for n in (2, 4, 6, 8, 16, 32)
        }
        peak = max(series, key=series.get)
        assert 4 <= peak <= 8  # paper: peak at 6 nodes
        assert series[32] < series[peak] / 2

    def test_hash_one_all_scales_linearly(self):
        t8 = max_throughput_mbps(hash_similarity_task("one_all"), 8, 15.0)
        t64 = max_throughput_mbps(hash_similarity_task("one_all"), 64, 15.0)
        assert t64 == pytest.approx(8 * t8, rel=0.02)

    def test_hash_one_all_64_nodes_near_paper(self):
        t = max_throughput_mbps(hash_similarity_task("one_all"), 64, 15.0)
        assert 5000 <= t <= 10000  # paper: 6851 Mbps

    def test_dtw_all_all_communication_limited(self):
        """§6.2: DTW All-All is unaffected by power down to ~4 mW."""
        task_factory = lambda: dtw_similarity_task("all_all")
        t15 = max_throughput_mbps(task_factory(), 4, 15.0)
        t6 = max_throughput_mbps(task_factory(), 4, 6.0)
        assert t15 == pytest.approx(t6, rel=0.01)

    def test_dtw_all_all_decreases_with_nodes(self):
        task_factory = lambda: dtw_similarity_task("all_all")
        t2 = max_throughput_mbps(task_factory(), 2, 15.0)
        t64 = max_throughput_mbps(task_factory(), 64, 15.0)
        assert t64 < t2

    def test_mi_svm_highest_of_movement_apps(self):
        svm = max_throughput_mbps(mi_svm_task(), 16, 15.0)
        nn = max_throughput_mbps(mi_nn_task(), 16, 15.0)
        kf = max_throughput_mbps(mi_kf_task(), 16, 15.0)
        assert svm > nn > kf

    def test_mi_kf_saturates_at_384_electrodes(self):
        """§6.2: the NVM caps MI-KF at 384 electrodes / 4 nodes."""
        t4 = max_throughput_mbps(mi_kf_task(), 4, 15.0)
        t16 = max_throughput_mbps(mi_kf_task(), 16, 15.0)
        assert t4 == pytest.approx(t16, rel=0.01)
        assert t4 / 0.48 == pytest.approx(384, rel=0.05)

    def test_mi_kf_flat_then_quadratic_in_power(self):
        t15 = max_throughput_mbps(mi_kf_task(), 8, 15.0)
        t12 = max_throughput_mbps(mi_kf_task(), 8, 12.0)
        t6 = max_throughput_mbps(mi_kf_task(), 8, 6.0)
        assert t12 == pytest.approx(t15, rel=0.01)  # NVM-limited region
        assert t6 < t15  # power-limited region


class TestMultiFlow:
    def test_weights_steer_allocation(self):
        flows_a = [
            Flow(seizure_detection_task(), weight=10.0, electrode_cap=96),
            Flow(hash_similarity_task("all_all", net_budget_ms=1.0),
                 weight=1.0, electrode_cap=96),
        ]
        flows_b = [
            Flow(seizure_detection_task(), weight=1.0, electrode_cap=96),
            Flow(hash_similarity_task("all_all", net_budget_ms=1.0),
                 weight=10.0, electrode_cap=96),
        ]
        # tighten power so the flows genuinely compete
        a = SchedulerProblem(8, flows_a, power_budget_mw=8.0).solve()
        b = SchedulerProblem(8, flows_b, power_budget_mw=8.0).solve()
        det_a = a.allocation("seizure_detection").electrodes_per_node
        det_b = b.allocation("seizure_detection").electrodes_per_node
        assert det_a > det_b

    def test_power_budget_respected(self):
        flows = [
            Flow(seizure_detection_task(), electrode_cap=96),
            Flow(hash_similarity_task("all_all", net_budget_ms=1.0),
                 electrode_cap=96),
            Flow(dtw_similarity_task("one_all", net_budget_ms=4.0),
                 electrode_cap=96),
        ]
        schedule = SchedulerProblem(11, flows, power_budget_mw=15.0).solve()
        assert schedule.node_power_mw <= 15.0 + 1e-6

    def test_static_power_over_budget_rejected(self):
        flows = [Flow(seizure_detection_task())]
        with pytest.raises(SchedulingError):
            SchedulerProblem(2, flows, power_budget_mw=0.5).solve()

    @pytest.mark.parametrize("budget", (0.0, float("nan"), float("inf")))
    def test_non_positive_or_non_finite_budget_rejected(self, budget):
        with pytest.raises(SchedulingError, match="power budget"):
            SchedulerProblem(4, [Flow(spike_sorting_task())], budget)

    def test_missing_allocation_lookup_raises(self):
        schedule = SchedulerProblem(
            2, [Flow(spike_sorting_task())]
        ).solve()
        with pytest.raises(SchedulingError):
            schedule.allocation("ghost")

    def test_weighted_metric_normalises(self):
        flows = [
            Flow(spike_sorting_task(), weight=2.0),
            Flow(seizure_detection_task(), weight=2.0),
        ]
        schedule = SchedulerProblem(4, flows).solve()
        mean_flow = sum(a.aggregate_mbps for a in schedule.allocations) / 2
        assert schedule.weighted_mbps() == pytest.approx(mean_flow)

    def test_analytic_breakdown_names_binding_constraint(self):
        breakdown = analytic_electrodes(dtw_similarity_task("all_all"), 16, 15.0)
        assert breakdown.binding == "network"
        breakdown = analytic_electrodes(spike_sorting_task(), 1, 15.0)
        assert breakdown.binding == "power"
        breakdown = analytic_electrodes(mi_kf_task(), 8, 15.0)
        assert breakdown.binding == "nvm"


class TestSolutionNonNegativity:
    """HiGHS roundoff can return -1e-12-ish components; solve() clamps."""

    @pytest.mark.parametrize("n_nodes", [1, 2, 4, 8, 16, 32, 64])
    @pytest.mark.parametrize("task_factory", ALL_TASKS)
    def test_allocations_never_negative(self, task_factory, n_nodes):
        problem = SchedulerProblem(
            n_nodes=n_nodes, flows=[Flow(task_factory())]
        )
        schedule = problem.solve()
        for alloc in schedule.allocations:
            assert alloc.electrodes_per_node >= 0.0
            assert alloc.aggregate_electrodes >= 0.0
            assert alloc.power_mw_per_node >= 0.0
            assert alloc.airtime_ms_per_period >= 0.0
            assert alloc.aggregate_mbps >= 0.0
        assert schedule.aggregate_mbps >= 0.0
        assert schedule.network_utilisation >= 0.0

    def test_multi_flow_contended_allocations_never_negative(self):
        flows = [
            Flow(seizure_detection_task(), electrode_cap=96),
            Flow(hash_similarity_task("all_all", net_budget_ms=1.0),
                 electrode_cap=96),
            Flow(dtw_similarity_task("one_all", net_budget_ms=4.0),
                 electrode_cap=96),
        ]
        schedule = SchedulerProblem(32, flows, power_budget_mw=6.0).solve()
        for alloc in schedule.allocations:
            assert alloc.electrodes_per_node >= 0.0
            assert alloc.aggregate_electrodes >= 0.0
            assert alloc.power_mw_per_node >= 0.0


class TestSchedulerTelemetry:
    def test_max_throughput_books_solve_metrics(self):
        tel = Telemetry()
        max_throughput_mbps(seizure_detection_task(), 4, 15.0, telemetry=tel)
        assert tel.registry.counter("scheduler.solves") == 1.0
        (span,) = tel.spans_named("ilp-solve")
        assert span.attrs == {"n_nodes": 4, "n_flows": 1}

    def test_sweep_books_one_solve_per_cell(self):
        from repro.eval.throughput import fig8b

        tel = Telemetry()
        fig8b(node_counts=(1, 2), power_limits=(15.0,), telemetry=tel)
        # 4 similarity surfaces x 1 power x 2 node counts
        assert tel.registry.counter("scheduler.solves") == 8.0

    def test_default_is_silent(self):
        # no telemetry argument: nothing to assert beyond "doesn't blow up",
        # which is exactly the NULL_TELEMETRY contract
        assert max_throughput_mbps(seizure_detection_task(), 2, 15.0) > 0


def _fig9_flows():
    return [
        Flow(seizure_detection_task(), weight=3.0,
             electrode_cap=ELECTRODES_PER_NODE),
        Flow(hash_similarity_task("all_all", net_budget_ms=1.0),
             weight=1.0, electrode_cap=ELECTRODES_PER_NODE),
        Flow(dtw_similarity_task("one_all", net_budget_ms=4.0),
             weight=1.0, electrode_cap=ELECTRODES_PER_NODE),
    ]


def _electrodes(schedule):
    """Recover the decision vector from a materialised schedule, exactly.

    The variable is the total count for a centralised flow and the
    per-node count otherwise; both are stored without rounding.
    """
    return np.array(
        [
            a.aggregate_electrodes if a.flow.task.centralised
            else a.electrodes_per_node
            for a in schedule.allocations
        ]
    )


class TestUtilisationReporting:
    """The report must be the constraint's LHS (reporting bugfix #1)."""

    def test_zero_cap_flow_books_no_phantom_airtime(self):
        # dtw all_all at 64 nodes: 64 fixed bursts alone overrun a 1 ms
        # latency budget, so the flow's cap collapses to zero.  The old
        # report still charged mult * fixed airtime for it and printed
        # utilisation >> the 0.95 cap.
        flows = [
            Flow(seizure_detection_task(), weight=1.0,
                 electrode_cap=ELECTRODES_PER_NODE),
            Flow(dtw_similarity_task("all_all", net_budget_ms=1.0),
                 weight=1.0, electrode_cap=ELECTRODES_PER_NODE),
        ]
        problem = SchedulerProblem(n_nodes=64, flows=flows)
        cs = problem.constraints()
        dtw_row = cs.rows[1]
        assert dtw_row.cap == 0.0
        schedule = problem.solve()
        dtw_alloc = schedule.allocations[1]
        assert dtw_alloc.aggregate_electrodes == pytest.approx(0.0, abs=1e-9)
        assert dtw_alloc.airtime_ms_per_period == 0.0
        assert (schedule.network_utilisation
                <= NETWORK_UTILISATION_CAP + 1e-9)

    def test_report_equals_constraint_lhs(self):
        problem = SchedulerProblem(n_nodes=64, flows=_fig9_flows())
        schedule = problem.solve()
        cs = problem.constraints()
        assert schedule.network_utilisation == pytest.approx(
            cs.utilisation(_electrodes(schedule))
        )

    def test_capped_sharing_flow_still_charges_fixed_burst(self):
        # The conservative charge is intentional: a sharing flow that
        # *can* run occupies its fixed burst even at zero electrodes.
        flows = [Flow(hash_similarity_task("one_all", net_budget_ms=2.0),
                      weight=1.0, electrode_cap=ELECTRODES_PER_NODE)]
        cs = SchedulerProblem(n_nodes=8, flows=flows).constraints()
        row = cs.rows[0]
        assert row.cap > 0
        assert row.utilisation(0.0) > 0.0


class TestMediumSaturation:
    """Explicit degrade instead of a silent RHS clamp (bugfix #2)."""

    def _flows(self):
        return [
            Flow(seizure_detection_task(), weight=1.0,
                 electrode_cap=ELECTRODES_PER_NODE),
            Flow(hash_similarity_task("one_all", net_budget_ms=1e6),
                 weight=1.0, electrode_cap=ELECTRODES_PER_NODE),
        ]

    def test_saturated_medium_degrades_explicitly(self):
        telemetry = Telemetry()
        # A 1000 ms guard interval makes the fixed burst alone overrun
        # the utilisation cap while the (huge) latency budget keeps the
        # flow capped in — the silent-clamp cell.
        problem = SchedulerProblem(n_nodes=4, flows=self._flows(),
                                   tdma=TDMAConfig(guard_ms=1000.0),
                                   telemetry=telemetry)
        cs = problem.constraints()
        assert cs.medium_saturated
        assert cs.rows[1].cap == 0.0  # sharing flow degraded to zero
        assert cs.rows[0].cap > 0.0  # local analytics unaffected
        assert cs.fixed_util == 0.0
        schedule = problem.solve()
        assert telemetry.registry.counter("scheduler.medium_saturated") >= 1
        assert schedule.allocations[1].aggregate_electrodes == pytest.approx(
            0.0, abs=1e-9
        )
        assert schedule.allocations[0].aggregate_electrodes > 0
        assert (schedule.network_utilisation
                <= NETWORK_UTILISATION_CAP + 1e-9)

    def test_unsaturated_medium_books_nothing(self):
        telemetry = Telemetry()
        problem = SchedulerProblem(n_nodes=4, flows=self._flows(),
                                   telemetry=telemetry)
        cs = problem.constraints()
        assert not cs.medium_saturated
        assert cs.fixed_util > 0.0
        schedule = problem.solve()
        assert telemetry.registry.counter("scheduler.medium_saturated") == 0
        assert schedule.allocations[1].aggregate_electrodes > 0


# --- the single-flow closed form against the LP ------------------------------


def _assert_matches_linprog(problem):
    cs = problem.constraints()
    got = _electrodes(problem.solve())
    assert got == pytest.approx(linprog_electrodes(cs), rel=1e-12, abs=1e-12)
    assert cs.verify(got) == ()
    return got, cs


class TestSingleFlowClosedForm:
    """Single-flow problems skip linprog; the optimum must not move."""

    @settings(max_examples=150, deadline=None)
    @given(
        task_factory=st.sampled_from(ALL_TASKS),
        n_nodes=st.integers(1, 1024),
        power_mw=st.floats(6.0, 20.0),
        cap=st.one_of(st.none(), st.floats(0.0, 256.0)),
    )
    # one example per row that binds strictly below the others
    @example(task_factory=mi_svm_task, n_nodes=1, power_mw=20.0, cap=50.0)
    @example(task_factory=ALL_TASKS[2], n_nodes=16, power_mw=20.0, cap=None)
    @example(task_factory=ALL_TASKS[4], n_nodes=64, power_mw=6.0, cap=None)
    @example(task_factory=seizure_detection_task, n_nodes=1, power_mw=6.0,
             cap=None)
    @example(task_factory=mi_kf_task, n_nodes=8, power_mw=15.0, cap=None)
    def test_matches_linprog(self, task_factory, n_nodes, power_mw, cap):
        problem = SchedulerProblem(
            n_nodes=n_nodes,
            flows=[Flow(task_factory(), electrode_cap=cap)],
            power_budget_mw=power_mw,
        )
        try:
            problem.constraints()
        except SchedulingError:  # static power alone over budget
            assume(False)
        _assert_matches_linprog(problem)

    @pytest.mark.parametrize("task_factory", ALL_TASKS)
    @pytest.mark.parametrize("n_nodes", (1, 8, 64))
    def test_matches_linprog_with_the_cap_lifted(self, task_factory,
                                                 n_nodes):
        """Each row binds on its own, even one the builder's cap repeats.

        ``build_constraints`` folds the power limit into the cap, so
        lifting the cap is what lets the power row (or the top of the
        breakpoint grid) bind.
        """
        problem = SchedulerProblem(n_nodes, [Flow(task_factory())])
        cs = problem.constraints()
        lifted = dataclasses.replace(
            cs, rows=(dataclasses.replace(cs.rows[0], cap=1e9),)
        )
        got = problem._solve_ilp(lifted)
        assert got == pytest.approx(
            linprog_electrodes(lifted), rel=1e-12, abs=1e-12
        )

    @pytest.mark.parametrize("task_factory", (seizure_detection_task,
                                              mi_kf_task))
    @pytest.mark.parametrize("n_nodes", (1, 4, 64))
    @pytest.mark.parametrize("headroom", (0.05, 0.3, 0.95))
    def test_chord_binds_below_the_quadratic_root(
        self, task_factory, n_nodes, headroom
    ):
        """Under one electrode of headroom the grid spans [0, 1].

        The LP's lambda hull is then a chord above the convex power
        curve, so its optimum sits strictly below the exact root (the
        flow's cap) — the closed form must take the same chord.
        """
        full = SchedulerProblem(n_nodes, [Flow(task_factory())]).constraints()
        problem = SchedulerProblem(
            n_nodes=n_nodes,
            flows=[Flow(task_factory())],
            power_budget_mw=(
                full.static_mw + headroom * full.rows[0].dynamic_mw(1.0)
            ),
        )
        got, cs = _assert_matches_linprog(problem)
        assert got[0] < cs.rows[0].cap

    def test_nvm_row_binds(self):
        task = dataclasses.replace(
            spike_sorting_task(), nvm_bytes_per_electrode_period=1e5,
            uses_nvm=True,
        )
        problem = SchedulerProblem(n_nodes=1, flows=[Flow(task)])
        got, cs = _assert_matches_linprog(problem)
        row = cs.rows[0]
        assert got[0] == cs.nvm_budget_bytes_per_ms / row.nvm_per_ms
        assert got[0] < row.cap

    @pytest.mark.parametrize("weight", (0.0, -1.0))
    @pytest.mark.parametrize("task_factory", (spike_sorting_task,
                                              seizure_detection_task))
    def test_non_positive_weight_allocates_nothing(self, task_factory,
                                                   weight):
        problem = SchedulerProblem(
            n_nodes=4, flows=[Flow(task_factory(), weight=weight)]
        )
        got, _ = _assert_matches_linprog(problem)
        assert got[0] == 0.0

    def test_dtw_all_all_network_collapses_the_cap(self):
        """64 all-to-all bursts leave 0.132 electrodes per node of a
        164-electrode power cap; the medium row binds just below the
        latency row (0.143)."""
        problem = SchedulerProblem(
            n_nodes=64, flows=[Flow(dtw_similarity_task("all_all"))]
        )
        got, cs = _assert_matches_linprog(problem)
        row = cs.rows[0]
        assert round(float(got[0]), 3) == 0.132
        assert got[0] == cs.util_rhs / row.util_slope_per_ms
        assert got[0] < row.latency_rhs_ms / (row.mult * row.airtime_slope_ms)
        assert got[0] < row.cap / 1000

    def test_saturated_medium_allocates_nothing(self):
        problem = SchedulerProblem(
            n_nodes=4,
            flows=[Flow(hash_similarity_task("one_all", net_budget_ms=1e6))],
            tdma=TDMAConfig(guard_ms=1000.0),
        )
        got, cs = _assert_matches_linprog(problem)
        assert cs.medium_saturated
        assert got[0] == 0.0

    def test_static_power_over_budget_raises_before_any_solve(self):
        tel = Telemetry()
        problem = SchedulerProblem(
            2, [Flow(seizure_detection_task())], power_budget_mw=0.5,
            telemetry=tel,
        )
        with pytest.raises(SchedulingError, match="static power"):
            problem.solve()
        assert tel.registry.counter("scheduler.solves") == 0.0
        assert tel.spans_named("ilp-solve") == []

    @pytest.mark.parametrize("flows", (
        [Flow(seizure_detection_task())],
        [Flow(spike_sorting_task())],
        _fig9_flows(),
    ), ids=("quadratic", "linear", "multi-flow"))
    def test_telemetry_parity(self, flows):
        """Closed form and LP book the same solve telemetry."""
        tel = Telemetry()
        SchedulerProblem(8, flows, telemetry=tel).solve()
        assert tel.registry.counter("scheduler.solves") == 1.0
        (span,) = tel.spans_named("ilp-solve")
        assert span.attrs == {"n_nodes": 8, "n_flows": len(flows)}

    def test_single_flow_sweep_never_imports_scipy(self):
        script = """
import sys
from repro.eval.throughput import fig8b
fig8b()
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded[:5]
"""
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc.returncode == 0, proc.stderr


# --- the multi-flow simplex against the LP -------------------------------------


def _optimum_is_unique(cs, ref):
    """Whether HiGHS's vertex survives nudging the weights both ways.

    On a tie (say a duplicated task at equal weight) the two nudges
    favour different flows and move the optimum; a unique optimum stays.
    The nudge is well above the oracle's 1e-10 dual tolerance.
    """
    ramp = 1e-5 * np.arange(1, len(cs.rows) + 1)
    scale = max(1.0, float(np.max(ref)))
    return all(
        np.max(np.abs(linprog_electrodes(cs, 1.0 + sign * ramp) - ref))
        <= 1e-9 * scale
        for sign in (1.0, -1.0)
    )


class TestMultiFlowSimplex:
    """Several flows: the bounded simplex reaches HiGHS's optimum."""

    @settings(max_examples=200, deadline=None)
    @given(
        flows=st.lists(
            st.tuples(
                st.sampled_from(ALL_TASKS),
                # HiGHS drops costs below its own tolerance (a lone
                # flow of weight 1e-38 gets 0 electrodes), so weights
                # start where the oracle is still exact
                st.one_of(st.just(0.0), st.floats(1e-3, 10.0)),
                st.one_of(st.none(), st.floats(0.0, 256.0)),
            ),
            min_size=2, max_size=4,
        ),
        n_nodes=st.integers(1, 1024),
        power_mw=st.floats(6.0, 20.0),
    )
    # a tie: the same task twice at equal weight
    @example(flows=[(spike_sorting_task, 1.0, None)] * 2, n_nodes=4,
             power_mw=15.0)
    # mi_kf is held 1.2e-11 under its breakpoint by HiGHS's tolerances
    @example(flows=[(mi_kf_task, 9.089575386454205, None),
                    (seizure_detection_task, 1.8391513899, None)],
             n_nodes=675, power_mw=17.67743238039295)
    # at HiGHS's default tolerances the oracle overshot the 6 mW power row
    # and beat the simplex's objective by 7.3e-10 relative ...
    @example(flows=[(seizure_detection_task, 1.0, None),
                    (seizure_detection_task, 1.0, 1.192092896e-07)],
             n_nodes=1, power_mw=6.0)
    # ... or stopped 6.6e-9 relative short of the optimum
    @example(flows=[(seizure_detection_task, 2.0, 0.21875),
                    (seizure_detection_task, 0.001, None)],
             n_nodes=1, power_mw=6.0)
    # the dual simplex at the oracle's tolerances fails on a nudged copy of
    # this program (hash and DTW similarity, both one-to-all)
    @example(flows=[(ALL_TASKS[3], 8.0, None), (ALL_TASKS[5], 1.0, None),
                    (spike_sorting_task, 8.0, None)],
             n_nodes=1009, power_mw=6.0)
    def test_matches_linprog(self, flows, n_nodes, power_mw):
        problem = SchedulerProblem(
            n_nodes,
            [Flow(task(), weight=w, electrode_cap=cap)
             for task, w, cap in flows],
            power_mw,
        )
        try:
            cs = problem.constraints()
        except SchedulingError:  # static power alone over budget
            assume(False)
        got = problem._solve_ilp(cs)
        ref = linprog_electrodes(cs)
        weights = np.array([row.flow.weight * row.count for row in cs.rows])
        assert weights @ got == pytest.approx(weights @ ref, rel=1e-12,
                                              abs=1e-12)
        assert cs.verify(got) == ()
        if _optimum_is_unique(cs, ref):
            assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, np.max(ref))

    @pytest.mark.parametrize("weights", FIG9A_WEIGHTS + ((1, 1, 1),))
    @pytest.mark.parametrize("n_nodes", FIG9_NODE_COUNTS)
    def test_fig9a_and_sec63_instances_match_linprog(self, weights, n_nodes):
        """Every multi-flow problem the figures pose gets HiGHS's vector
        (``(1, 1, 1)`` at 11 nodes is the §6.3 scalar)."""
        flows = [
            dataclasses.replace(flow, weight=float(w))
            for flow, w in zip(_fig9_flows(), weights)
        ]
        _assert_matches_linprog(SchedulerProblem(n_nodes, flows))

    def test_equal_weight_duplicates_fill_the_earlier_flow(self):
        """Tie-break: on equal gain the lower flow index enters first."""
        problem = SchedulerProblem(
            4, [Flow(spike_sorting_task()), Flow(spike_sorting_task())]
        )
        got = problem._solve_ilp(problem.constraints())
        assert got[0] == problem.constraints().rows[0].cap
        assert got[1] == 0.0

    @pytest.mark.parametrize("field, value", [
        ("dyn_budget_mw", -1.0),
        ("util_rhs", -0.1),
        ("nvm_budget_bytes_per_ms", -1.0),
        ("cap", -1.0),
        ("latency_rhs_ms", -0.5),
    ])
    def test_infeasible_rows_raise_as_linprog_fails(self, field, value):
        tel = Telemetry()
        problem = SchedulerProblem(8, _fig9_flows(), telemetry=tel)
        cs = problem.constraints()
        if field in ("cap", "latency_rhs_ms"):
            rows = list(cs.rows)
            rows[1] = dataclasses.replace(rows[1], **{field: value})
            bad = dataclasses.replace(cs, rows=tuple(rows))
        else:
            bad = dataclasses.replace(cs, **{field: value})
        assert not linprog(**lp_program(bad), method="highs").success
        with pytest.raises(SchedulingError, match="infeasible"):
            problem._solve_ilp(bad)
        assert tel.registry.counter("scheduler.solve_failures") == 1.0


class TestReportedPowerIsTheConstraintLhs:
    """``node_power_mw`` is the power row's LHS (a centralised flow's
    linear cost is the binding node's share, as in the constraint)."""

    @staticmethod
    def _check(problem):
        schedule = problem.solve()
        cs = problem.constraints()
        electrodes = _electrodes(schedule)
        assert schedule.node_power_mw == cs.node_power_mw(electrodes)
        assert schedule.node_power_mw <= (
            problem.power_budget_mw * (1 + VERIFY_TOL)
        )
        for alloc, row, e in zip(schedule.allocations, cs.rows, electrodes):
            assert alloc.power_mw_per_node == row.dynamic_mw(e)

    @pytest.mark.parametrize("n_nodes", (1, 2, 8, 64))
    @pytest.mark.parametrize("task_factory", ALL_TASKS)
    def test_single_flow(self, task_factory, n_nodes):
        self._check(SchedulerProblem(n_nodes, [Flow(task_factory())], 15.0))

    @pytest.mark.parametrize("weights", FIG9A_WEIGHTS)
    @pytest.mark.parametrize("n_nodes", FIG9_NODE_COUNTS)
    def test_fig9a(self, weights, n_nodes):
        flows = [
            dataclasses.replace(flow, weight=float(w))
            for flow, w in zip(_fig9_flows(), weights)
        ]
        self._check(SchedulerProblem(n_nodes, flows))

    def test_mi_kf_reads_the_constraint_not_the_full_linear_cost(self):
        problem = SchedulerProblem(8, [Flow(mi_kf_task())], 15.0)
        schedule = problem.solve()
        assert schedule.node_power_mw == pytest.approx(9.4934, abs=1e-4)


class TestHashSeedIndependence:
    """Scheduler results must not depend on ``PYTHONHASHSEED``.

    Static power sums PE leakage over a set of PE names; summed in set
    order, the float's last bit followed the hash seed, and with it some
    fig. 8c cells.  Full-precision ``repr`` catches what the printed
    figures round away.
    """

    SCRIPT = """
import json
from repro.eval.application import fig9a, sec63_scalars
from repro.eval.throughput import fig8c

def full(x):
    if isinstance(x, dict):
        return {repr(k): full(v) for k, v in x.items()}
    return repr(x)

print(json.dumps(full({"fig8c": fig8c(), "fig9a": fig9a(),
                       "sec63": sec63_scalars()}), sort_keys=True))
"""

    def _run(self, hash_seed):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        env["PYTHONHASHSEED"] = str(hash_seed)
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT],
            capture_output=True, text=True, timeout=300, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def test_full_precision_outputs_identical_across_hash_seeds(self):
        assert self._run(0) == self._run(13)
