"""The scheduler: optimal electrode allocation across flows.

Mirrors the paper's §3.5 formulation: each application stage is a *flow*;
the objective maximises the priority-weighted number of electrode signals
processed per flow, subject to per-node power, shared-TDMA network, and
NVM-bandwidth constraints.  SCALO's deterministic components make every
coefficient exact.

The exact constraint rows live in :mod:`repro.scheduler.constraints`;
the LP here solves them exactly, with numpy alone.  Quadratic (pairwise)
power terms are handled with the lambda-formulation of piecewise-linear
convexification: because the power curve is convex and appears on the
small side of a "<= budget" constraint, the LP relaxation is exact at
breakpoints and conservative between them — no integer variables
needed.  A single-flow LP has one decision variable, so its optimum is
taken in closed form over the same rows and the same breakpoint grid;
several flows go through a bounded-variable simplex with at most three
coupling rows.  (The paper's artifact uses GLPK; same problem, different
solver.  The tests check both paths against HiGHS.)
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import SchedulingError
from repro.network.tdma import TDMAConfig
from repro.scheduler.constraints import (
    NETWORK_UTILISATION_CAP,
    ConstraintSystem,
    FlowRow,
    build_constraints,
)
from repro.scheduler.model import TaskModel
from repro.telemetry import NULL_TELEMETRY, TelemetryLike
from repro.units import NODE_POWER_CAP_MW, electrodes_to_mbps

__all__ = [
    "Flow",
    "FlowAllocation",
    "Schedule",
    "SchedulerProblem",
    "max_throughput_mbps",
    "NETWORK_UTILISATION_CAP",
]

#: Breakpoints used to convexify quadratic power terms.
N_BREAKPOINTS = 33

#: Smallest pivot element the simplex ratio test accepts.
_PIVOT_TOL = 1e-12

#: Reduced costs within this fraction of their terms count as zero.
_COST_TOL = 1e-11

#: Basis changes after which the simplex gives up (a few suffice).
_MAX_PIVOTS = 1000


@dataclass(frozen=True)
class Flow:
    """One schedulable flow: a task model plus its priority weight."""

    task: TaskModel
    weight: float = 1.0
    #: per-node electrode cap (None = unbounded, the fig. 8 mode where
    #: ADCs are added until another constraint binds)
    electrode_cap: float | None = None


@dataclass
class FlowAllocation:
    """The scheduler's decision for one flow."""

    flow: Flow
    electrodes_per_node: float
    aggregate_electrodes: float
    power_mw_per_node: float
    airtime_ms_per_period: float

    @property
    def aggregate_mbps(self) -> float:
        return electrodes_to_mbps(self.aggregate_electrodes)


@dataclass
class Schedule:
    """A complete solution.

    ``network_utilisation`` is the shared-medium constraint's left-hand
    side at this solution — it counts medium-sharing flows (``one_all`` /
    ``all_all``) that are able to run; ``all_one`` aggregations pipeline
    across periods and are exempt, and flows whose electrode cap
    collapsed to zero burst nothing.  A feasible schedule therefore
    always reports utilisation <= :data:`NETWORK_UTILISATION_CAP`.
    """

    allocations: list[FlowAllocation]
    n_nodes: int
    power_budget_mw: float
    node_power_mw: float
    network_utilisation: float

    @property
    def aggregate_mbps(self) -> float:
        return sum(a.aggregate_mbps for a in self.allocations)

    def weighted_mbps(self) -> float:
        """Priority-weighted aggregate throughput.

        The paper's Fig. 9a metric: the weight-normalised sum of per-flow
        aggregate throughputs (equal weights reduce to the mean flow
        throughput).
        """
        total_weight = sum(a.flow.weight for a in self.allocations)
        if total_weight == 0:
            return 0.0
        return sum(
            a.flow.weight * a.aggregate_mbps for a in self.allocations
        ) / total_weight


@dataclass
class SchedulerProblem:
    """Build and solve one scheduling instance."""

    n_nodes: int
    flows: list[Flow]
    power_budget_mw: float = NODE_POWER_CAP_MW
    tdma: TDMAConfig = field(default_factory=TDMAConfig)
    #: observability handle: books ``scheduler.solves`` and the
    #: ``ilp-solve`` span around the optimiser
    telemetry: TelemetryLike = field(default=NULL_TELEMETRY, repr=False)

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise SchedulingError("need at least one node")
        if not self.flows:
            raise SchedulingError("need at least one flow")
        if not 0 < self.power_budget_mw < np.inf:
            raise SchedulingError("power budget must be positive and finite")

    # -- constraint rows ----------------------------------------------------------

    def constraints(self) -> ConstraintSystem:
        """The exact feasible region the LP solves."""
        return build_constraints(
            n_nodes=self.n_nodes,
            flows=self.flows,
            power_budget_mw=self.power_budget_mw,
            tdma=self.tdma,
            telemetry=self.telemetry,
        )

    # -- solve --------------------------------------------------------------------

    def solve(self) -> Schedule:
        """Maximise priority-weighted electrodes; returns the schedule.

        Raises:
            SchedulingError: when even zero electrodes violate a
                constraint (static power over budget) or the LP fails.
        """
        cs = self.constraints()
        electrodes = self._solve_ilp(cs)
        tel = self.telemetry
        tel.inc("scheduler.solves")
        schedule = cs.schedule(electrodes)
        if tel.enabled:
            tel.set_gauge(
                "scheduler.node_power_mw",
                schedule.node_power_mw,
                nodes=self.n_nodes,
            )
            tel.set_gauge(
                "scheduler.network_utilisation",
                schedule.network_utilisation,
                nodes=self.n_nodes,
            )
            for alloc in schedule.allocations:
                tel.set_gauge(
                    "scheduler.electrodes_per_node",
                    alloc.electrodes_per_node,
                    flow=alloc.flow.task.name,
                    nodes=self.n_nodes,
                )
        return schedule

    def _solve_ilp(self, cs: ConstraintSystem) -> np.ndarray:
        """The exact optimum over the shared constraint rows.

        A single flow is solved in closed form; several flows go
        through the bounded simplex.
        """
        optimum = (
            _single_flow_optimum if len(cs.rows) == 1 else _multi_flow_optimum
        )
        with self.telemetry.span(
            "ilp-solve", n_nodes=self.n_nodes, n_flows=len(cs.rows)
        ):
            electrodes = optimum(cs)
        if electrodes is None:
            self.telemetry.inc("scheduler.solve_failures")
            raise SchedulingError("the scheduling rows are infeasible")

        # the solvers' divisions carry roundoff: components can come back
        # as -1e-16 and propagate sign into every derived quantity
        # (negative electrodes, power, airtime).  Feasible solutions are
        # non-negative by construction, so clamp before deriving.
        return np.maximum(np.atleast_1d(electrodes), 0.0)


def _breakpoints(row: FlowRow) -> tuple[np.ndarray, np.ndarray]:
    """A quadratic flow's lambda-hull grid and the power at each point.

    The grid spans the pre-network power cap, so the convexification is
    identical across node counts.  For a centralised flow the variable
    is the *total* electrode count: sensing (linear) cost spreads over
    all nodes while the quadratic compute lands on the central node, so
    the binding node pays ``linear / N + quadratic(E)``.
    """
    xs = np.linspace(0.0, max(row.power_grid_cap, 1.0), N_BREAKPOINTS)
    return xs, row.dynamic_mw(xs)


def _single_flow_optimum(cs: ConstraintSystem) -> float | None:
    """The one-flow LP's optimum in closed form; None when infeasible.

    With one variable ``e`` every row is ``a * e <= b`` with ``a >= 0``,
    so the optimum is ``min(cap, b / a)`` over the rows with ``a > 0``.
    A quadratic flow's power row is the LP's lambda hull: the chord of
    the same breakpoint grid, cut where it crosses the dynamic budget
    (the LP's convexified optimum, not the exact quadratic root).
    """
    (row,) = cs.rows
    linear = [
        (row.util_slope_per_ms, cs.util_rhs),
        (row.nvm_per_ms, cs.nvm_budget_bytes_per_ms),
    ]
    if row.latency_rhs_ms is not None:
        linear.append((row.mult * row.airtime_slope_ms, row.latency_rhs_ms))
    best = row.cap
    if row.task.pairwise_uw > 0:
        xs, power = _breakpoints(row)
        budget = cs.dyn_budget_mw
        if budget < 0:
            return None
        # power[0] == 0 <= budget, so the crossing segment starts at k >= 0
        k = int(np.searchsorted(power, budget, side="right")) - 1
        if k == N_BREAKPOINTS - 1:
            best = min(best, float(xs[k]))
        else:
            frac = (budget - power[k]) / (power[k + 1] - power[k])
            best = min(best, float(xs[k] + frac * (xs[k + 1] - xs[k])))
    else:
        linear.append((row.dynamic_mw(1.0), cs.dyn_budget_mw))
    for a, b in linear:
        if a > 0:
            best = min(best, b / a)
        elif b < 0:
            return None
    if best < 0:
        return None
    # the LP's optimum is the origin when the objective cannot grow
    return best if row.flow.weight > 0 else 0.0


def _multi_flow_optimum(cs: ConstraintSystem) -> np.ndarray | None:
    """The multi-flow LP's optimum; None when infeasible.

    Each flow's cap and latency row fold into one upper bound.  A
    quadratic flow's lambda hull becomes the segments between its
    breakpoints, whose power slopes rise, so an optimum fills them in
    order and the segments past the bound are cut off.  What is left is
    ``max c·z`` over boxes with at most three coupling rows (power,
    medium utilisation, NVM), every coefficient >= 0: the origin is
    feasible exactly when no right-hand side or bound is negative.
    """
    flow_of: list[int] = []
    upper: list[float] = []
    power: list[float] = []
    cost: list[float] = []
    util: list[float] = []
    nvm: list[float] = []
    for i, row in enumerate(cs.rows):
        bound = row.cap
        if row.latency_rhs_ms is not None:
            bound = min(
                bound, row.latency_rhs_ms / (row.mult * row.airtime_slope_ms)
            )
        if bound < 0:
            return None
        if row.task.pairwise_uw > 0:
            xs, grid_mw = _breakpoints(row)
            n_seg = min(int(np.searchsorted(xs, bound)), N_BREAKPOINTS - 1)
            ends = xs[: n_seg + 1]
            lengths = np.minimum(ends[1:], bound) - ends[:-1]
            slopes = np.diff(grid_mw[: n_seg + 1]) / np.diff(ends)
            upper += lengths.tolist()
            power += slopes.tolist()
        else:
            n_seg = 1
            upper.append(bound)
            power.append(row.dynamic_mw(1.0))
        flow_of += [i] * n_seg
        cost += [row.flow.weight * row.count] * n_seg
        util += [row.util_slope_per_ms] * n_seg
        nvm += [row.nvm_per_ms] * n_seg

    rows = [power]
    rhs = [cs.dyn_budget_mw]
    for coeffs, budget in ((util, cs.util_rhs),
                           (nvm, cs.nvm_budget_bytes_per_ms)):
        if any(coeffs):
            rows.append(coeffs)
            rhs.append(budget)
    if min(rhs) < 0:
        return None
    z = _bounded_simplex(
        np.array(cost), np.array(rows), np.array(rhs), np.array(upper)
    )
    return np.bincount(flow_of, weights=z, minlength=len(cs.rows))


def _bounded_simplex(
    c: np.ndarray, a: np.ndarray, b: np.ndarray, upper: np.ndarray
) -> np.ndarray:
    """``max c·z`` subject to ``a z <= b`` and ``0 <= z <= upper``.

    A bounded-variable primal simplex from the all-slack basis, for
    ``b >= 0`` and few rows.  Reduced costs are computed once per basis;
    nonbasic columns then enter in order of decreasing gain (Dantzig's
    rule, the lower index first on equal gain), and a column that
    reaches its own bound first flips there without changing the basis.
    Degenerate pivots switch to Bland's rule (lowest index), which
    cannot cycle.  The basic values are re-solved from the final basis.
    """
    m, n = a.shape
    full = np.hstack([a, np.eye(m)])
    magnitude = np.abs(full)
    cost = np.concatenate([c, np.zeros(m)])
    ub = np.concatenate([upper, np.full(m, np.inf)]).tolist()
    basis = list(range(n, n + m))
    at_upper = np.zeros(n + m, dtype=bool)
    binv = np.eye(m)
    xb = b.tolist()
    bland = False
    for _ in range(_MAX_PIVOTS):
        y = cost[basis] @ binv
        d = cost - y @ full
        d[basis] = 0.0
        # relative to the terms d is computed from: roundoff, not a gain
        tol = _COST_TOL * (np.abs(cost) + np.abs(y) @ magnitude)
        eligible = np.flatnonzero(np.where(at_upper, d < -tol, d > tol))
        if not bland:
            eligible = eligible[np.argsort(-np.abs(d[eligible]), kind="stable")]
        alphas = (binv @ full[:, eligible]).T.tolist()
        for j, alpha in zip(eligible.tolist(), alphas):
            # moving z_j by +theta (or -theta from its upper bound)
            # moves the basic values by -sign * theta * alpha
            sign = -1.0 if at_upper[j] else 1.0
            theta, leave = ub[j], -1
            for r in range(m):
                step = sign * alpha[r]
                if step > _PIVOT_TOL:
                    t = xb[r] / step
                elif step < -_PIVOT_TOL:
                    t = (ub[basis[r]] - xb[r]) / -step
                else:
                    continue
                if t < theta or (
                    bland and t == theta and leave >= 0
                    and basis[r] < basis[leave]
                ):
                    theta, leave = t, r
            if theta == np.inf:
                raise SchedulingError("LP is unbounded")
            for r in range(m):
                xb[r] -= sign * theta * alpha[r]
            if leave < 0:
                at_upper[j] = not at_upper[j]
                continue
            out = basis[leave]
            at_upper[out] = sign * alpha[leave] < 0
            xb[leave] = ub[j] - theta if at_upper[j] else theta
            at_upper[j] = False
            basis[leave] = j
            pivot = binv[leave] / alpha[leave]
            binv -= np.outer(alpha, pivot)
            binv[leave] = pivot
            bland = theta == 0.0
            break
        else:
            break
    else:
        raise SchedulingError("LP did not converge")
    # basic columns from the rows whose slacks left the basis alone:
    # a basic slack row would only feed roundoff into them
    z = np.where(at_upper[:n], upper, 0.0)
    columns = [j for j in basis if j < n]
    if columns:
        tight = [r for r in range(m) if n + r not in basis]
        z[columns] = 0.0
        z[columns] = np.linalg.solve(
            a[np.ix_(tight, columns)], b[tight] - a[tight] @ z
        )
    return z


def max_throughput_mbps(
    task: TaskModel,
    n_nodes: int,
    power_budget_mw: float = NODE_POWER_CAP_MW,
    tdma: TDMAConfig | None = None,
) -> float:
    """Single-flow convenience: the paper's "maximum aggregate throughput"."""
    problem = SchedulerProblem(
        n_nodes=n_nodes,
        flows=[Flow(task)],
        power_budget_mw=power_budget_mw,
        tdma=tdma if tdma is not None else TDMAConfig(),
    )
    return problem.solve().aggregate_mbps
