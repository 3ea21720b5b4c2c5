"""Every schedule the LP ships satisfies the exact constraint rows.

``ConstraintSystem.verify()`` evaluates the power, latency, NVM and
utilisation rows exactly, independently of the LP's convexified power
row, so it serves as the oracle on the scheduler's own output.
"""

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.core.system import ScaloSystem
from repro.errors import SchedulingError
from repro.network.tdma import TDMAConfig
from repro.scheduler.constraints import (
    NETWORK_UTILISATION_CAP,
    build_constraints,
)
from repro.scheduler.ilp import Flow, SchedulerProblem
from repro.scheduler.model import (
    dtw_similarity_task,
    hash_similarity_task,
    mi_kf_task,
    mi_svm_task,
    seizure_detection_task,
    spike_sorting_task,
)
from repro.units import ELECTRODES_PER_NODE
from tests.test_scheduler_ilp import _electrodes, _fig9_flows


class TestSolverDispatch:
    """Both ways into the LP ship a feasible Fig. 9a schedule at 64 nodes."""

    @pytest.mark.parametrize("solver", ("ilp", "reschedule"))
    def test_every_solver_ships_a_feasible_schedule(self, solver):
        if solver == "ilp":
            schedule = SchedulerProblem(n_nodes=64, flows=_fig9_flows()).solve()
        else:  # failure-aware re-solve over the 64 survivors of 65 nodes
            system = ScaloSystem(n_nodes=65)
            system.fail_node(0)
            schedule = system.reschedule(_fig9_flows())
        assert schedule.n_nodes == 64
        cs = SchedulerProblem(n_nodes=64, flows=_fig9_flows()).constraints()
        assert cs.verify(_electrodes(schedule)) == ()
        assert (schedule.network_utilisation
                <= NETWORK_UTILISATION_CAP + 1e-9)


# --- the LP's output satisfies the exact rows: a property, not an anecdote ----

_TASK_MENU = (
    lambda: seizure_detection_task(),
    lambda: spike_sorting_task(),
    lambda: hash_similarity_task("all_all", net_budget_ms=1.0),
    lambda: hash_similarity_task("one_all", net_budget_ms=2.0),
    lambda: dtw_similarity_task("one_all", net_budget_ms=4.0),
    lambda: mi_svm_task(),
    lambda: mi_kf_task(),
)


@settings(max_examples=30, deadline=None)
@given(
    picks=st.lists(
        st.tuples(st.integers(0, len(_TASK_MENU) - 1),
                  st.integers(1, 5),
                  st.booleans()),
        min_size=1, max_size=4,
    ),
    n_nodes=st.integers(1, 1024),
    power_mw=st.floats(6.0, 20.0),
)
# the Fig. 9a seizure-propagation mix at 64 nodes, always checked
@example(picks=[(0, 3, True), (2, 1, True), (4, 1, True)], n_nodes=64,
         power_mw=15.0)
def test_portfolio_solutions_satisfy_exact_rows(picks, n_nodes, power_mw):
    """verify() is an oracle independent of the LP's convexified power row."""
    flows = [
        Flow(_TASK_MENU[i](), weight=float(w),
             electrode_cap=ELECTRODES_PER_NODE if capped else None)
        for i, w, capped in picks
    ]
    try:
        cs = build_constraints(n_nodes=n_nodes, flows=flows,
                               power_budget_mw=power_mw, tdma=TDMAConfig())
    except SchedulingError:  # static power alone over budget
        assume(False)
    schedule = SchedulerProblem(
        n_nodes=n_nodes, flows=flows, power_budget_mw=power_mw
    ).solve()
    electrodes = _electrodes(schedule)
    assert cs.verify(electrodes) == ()
    assert (schedule.network_utilisation
            <= NETWORK_UTILISATION_CAP + 1e-9)
    # the exact power row (binding-node share for centralised flows),
    # which is also what the schedule reports
    assert cs.node_power_mw(electrodes) <= power_mw * (1 + 1e-6) + 1e-6
    assert schedule.node_power_mw == cs.node_power_mw(electrodes)
