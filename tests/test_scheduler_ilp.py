"""Tests for the LP scheduler, checked against the closed-form oracle."""

import numpy as np
import pytest

from repro.errors import SchedulingError
from repro.eval.application import (
    SPIKES_PER_ELECTRODE_HZ,
    spike_sorting_rate_per_node,
)
from repro.scheduler.constraints import NETWORK_UTILISATION_CAP
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
from tests.throughput_oracle import analytic_electrodes, analytic_throughput_mbps

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
        reg = tel.registry
        assert reg.counter("scheduler.solves") == 1.0
        hist = reg.histogram("scheduler.ilp_solve_ms")
        assert hist is not None and hist.n >= 1

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
    """Recover the decision vector from a materialised schedule."""
    return np.array(
        [
            a.aggregate_electrodes / (1.0 if a.flow.task.centralised
                                      else schedule.n_nodes)
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
        # A 1000 ms per-round beacon overhead makes the fixed burst
        # alone overrun the utilisation cap while the (huge) latency
        # budget keeps the flow capped in — the silent-clamp cell.
        problem = SchedulerProblem(n_nodes=4, flows=self._flows(),
                                   round_overhead_ms=1000.0,
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
