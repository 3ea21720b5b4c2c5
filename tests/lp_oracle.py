"""Reference scheduler LP: the lambda-hull program solved by HiGHS.

:func:`lp_program` assembles the scheduler's LP over a
:class:`~repro.scheduler.constraints.ConstraintSystem` as
:func:`scipy.optimize.linprog` keywords, with one lambda block of
:data:`~repro.scheduler.ilp.N_BREAKPOINTS` weights per quadratic flow,
and :func:`linprog_electrodes` solves it.  The scheduler's own solvers
(the single-flow closed form and the bounded simplex) must reach the same
optimum.  Used only by the tests.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog

from repro.scheduler.constraints import ConstraintSystem
from repro.scheduler.ilp import N_BREAKPOINTS, _breakpoints


def linprog_electrodes(
    cs: ConstraintSystem, weight_scale: np.ndarray | None = None
) -> np.ndarray:
    """HiGHS's optimum of :func:`lp_program`, clamped like ``solve()``;
    ``weight_scale`` multiplies each flow's objective weight."""
    program = lp_program(cs)
    if weight_scale is not None:
        program["c"][: len(cs.rows)] *= weight_scale
    # at HiGHS's default feasibility tolerances (1e-7) the reference can
    # overshoot the power row (primal) or stop short of the optimum (dual)
    # by more than the tests' 1e-12.  Both are tightened; the dual simplex
    # then reports numerical trouble on some weight-nudged programs, which
    # the interior-point solver (with its crossover to a vertex) does not
    result = linprog(
        **program, method="highs-ipm",
        options={
            "primal_feasibility_tolerance": 1e-10,
            "dual_feasibility_tolerance": 1e-10,
        },
    )
    assert result.success, result.message
    return np.maximum(result.x[: len(cs.rows)], 0.0)


def lp_program(cs: ConstraintSystem) -> dict[str, object]:
    """The LP over ``cs`` as :func:`scipy.optimize.linprog` keywords.

    Variables are ``[e_0..e_{F-1}]`` plus one lambda block of
    :data:`N_BREAKPOINTS` per quadratic flow; the objective maximises
    ``sum w_i * count_i * e_i`` (``linprog`` minimises).
    """
    n_flows = len(cs.rows)
    lambda_offset: dict[int, int] = {}
    n_vars = n_flows
    for i, row in enumerate(cs.rows):
        if row.task.pairwise_uw > 0:
            lambda_offset[i] = n_vars
            n_vars += N_BREAKPOINTS

    c = np.zeros(n_vars)
    for i, row in enumerate(cs.rows):
        c[i] = -row.flow.weight * row.count

    a_ub: list[np.ndarray] = []
    b_ub: list[float] = []
    a_eq: list[np.ndarray] = []
    b_eq: list[float] = []

    # power: sum_i dyn_i(e_i) <= dyn_budget on the binding node
    power_row = np.zeros(n_vars)
    for i, row in enumerate(cs.rows):
        if i in lambda_offset:
            # e_i = sum lambda_j x_j ; power uses sum lambda_j g(x_j)
            xs, power = _breakpoints(row)
            block = slice(lambda_offset[i], lambda_offset[i] + N_BREAKPOINTS)
            link = np.zeros(n_vars)
            link[i] = 1.0
            link[block] = -xs
            a_eq.append(link)
            b_eq.append(0.0)
            hull = np.zeros(n_vars)
            hull[block] = 1.0
            a_eq.append(hull)
            b_eq.append(1.0)
            power_row[block] += power
        else:
            power_row[i] += row.dynamic_mw(1.0)
    a_ub.append(power_row)
    b_ub.append(cs.dyn_budget_mw)

    # network: per-flow latency budget + shared medium utilisation.
    # all-to-one aggregations pipeline across periods (the aggregator
    # stretches its cadence when the medium saturates), so they do not
    # get a hard latency row — their rate hit shows up in the
    # application-level intents/second metric instead.
    util_row = np.zeros(n_vars)
    for i, row in enumerate(cs.rows):
        if row.latency_rhs_ms is not None:
            lat_row = np.zeros(n_vars)
            lat_row[i] = row.mult * row.airtime_slope_ms
            a_ub.append(lat_row)
            b_ub.append(row.latency_rhs_ms)
        util_row[i] = row.util_slope_per_ms
    if np.any(util_row):
        a_ub.append(util_row)
        b_ub.append(cs.util_rhs)

    # NVM bandwidth per node (linear part)
    nvm_row = np.zeros(n_vars)
    for i, row in enumerate(cs.rows):
        nvm_row[i] += row.nvm_per_ms
    if np.any(nvm_row):
        a_ub.append(nvm_row)
        b_ub.append(cs.nvm_budget_bytes_per_ms)

    bounds = [(0.0, row.cap) for row in cs.rows]
    bounds += [(0.0, 1.0)] * (n_vars - n_flows)
    return {
        "c": c,
        "A_ub": np.vstack(a_ub),
        "b_ub": np.asarray(b_ub),
        "A_eq": np.vstack(a_eq) if a_eq else None,
        "b_eq": np.asarray(b_eq) if b_eq else None,
        "bounds": bounds,
    }
