"""The scheduler: optimal electrode allocation across flows.

Mirrors the paper's §3.5 formulation: each application stage is a *flow*;
the objective maximises the priority-weighted number of electrode signals
processed per flow, subject to per-node power, shared-TDMA network, and
NVM-bandwidth constraints.  SCALO's deterministic components make every
coefficient exact.

The exact constraint rows live in :mod:`repro.scheduler.constraints`; the
LP here solves them with HiGHS via :func:`scipy.optimize.linprog`.
Quadratic (pairwise) power terms are handled with the lambda-formulation
of piecewise-linear convexification: because the power curve is convex
and appears on the small side of a "<= budget" constraint, the LP
relaxation is exact at breakpoints and conservative between them — no
integer variables needed.  (The paper's artifact uses GLPK; same
problem, different backend.)  A single-flow LP has one decision
variable, so its optimum is taken in closed form over the same rows and
the same breakpoint grid; only multi-flow problems call the solver.
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

    def allocation(self, task_name: str) -> FlowAllocation:
        for a in self.allocations:
            if a.flow.task.name == task_name:
                return a
        raise SchedulingError(f"no allocation for task {task_name!r}")


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
        through the LP.
        """
        tel = self.telemetry
        if len(cs.rows) == 1:
            with self._solve_span(cs):
                best = _single_flow_optimum(cs)
            if best is None:
                tel.inc("scheduler.solve_failures")
                raise SchedulingError("single-flow rows are infeasible")
            return np.maximum(np.array([best]), 0.0)

        # deferred: scipy costs ~40 MB and ~0.3 s to import, and only
        # paths that solve a multi-flow schedule should pay for it
        from scipy.optimize import linprog

        program = lp_program(cs)
        with self._solve_span(cs):
            result = linprog(**program, method="highs")
        if not result.success:
            tel.inc("scheduler.solve_failures")
            raise SchedulingError(f"LP failed: {result.message}")

        # HiGHS reports interior-point-ish roundoff: components can come
        # back as -1e-12 and propagate sign into every derived quantity
        # (negative electrodes, power, airtime).  Feasible solutions are
        # non-negative by construction, so clamp before deriving.
        return np.maximum(result.x[: len(cs.rows)], 0.0)

    def _solve_span(self, cs: ConstraintSystem):
        """The ``ilp-solve`` span around the optimiser."""
        return self.telemetry.span(
            "ilp-solve", n_nodes=self.n_nodes, n_flows=len(cs.rows)
        )


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
    # linprog returns the origin when the objective cannot grow
    return best if row.flow.weight > 0 else 0.0


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


def max_throughput_mbps(
    task: TaskModel,
    n_nodes: int,
    power_budget_mw: float = NODE_POWER_CAP_MW,
    electrode_cap: float | None = None,
    tdma: TDMAConfig | None = None,
    telemetry: TelemetryLike = NULL_TELEMETRY,
) -> float:
    """Single-flow convenience: the paper's "maximum aggregate throughput"."""
    problem = SchedulerProblem(
        n_nodes=n_nodes,
        flows=[Flow(task, electrode_cap=electrode_cap)],
        power_budget_mw=power_budget_mw,
        tdma=tdma if tdma is not None else TDMAConfig(),
        telemetry=telemetry,
    )
    return problem.solve().aggregate_mbps
