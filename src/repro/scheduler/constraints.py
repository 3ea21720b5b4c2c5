"""Exact constraint rows of one scheduling instance.

This module builds the one authoritative :class:`ConstraintSystem` the
LP (:mod:`repro.scheduler.ilp`) solves — the per-flow electrode caps,
the exact (quadratic) power row, the per-flow latency rows, the
shared-medium utilisation row, and the NVM-bandwidth row — and owns:

* **the cost model**: :meth:`FlowRow.dynamic_mw` is the only
  dynamic-power formula, :func:`_power_cap` its only inverse and
  :func:`_static_mw` the only static-power sum;
  :class:`~repro.scheduler.model.TaskModel` only carries coefficients;
* **verification** (:meth:`ConstraintSystem.verify`): checks a solution
  against the exact rows (the LP convexifies quadratic power, so this
  is an independent oracle the tests apply to the LP's output);
* **schedule materialisation** (:meth:`ConstraintSystem.schedule`): the
  single place allocations and the reported ``network_utilisation`` are
  derived, so the report is the utilisation constraint's left-hand side
  evaluated at the solution — a feasible schedule can never report
  utilisation above :data:`NETWORK_UTILISATION_CAP` (flows whose cap
  collapsed to zero burst nothing and book no airtime);
* **explicit medium-saturation degrade**: when the fixed per-burst
  airtime alone exceeds the utilisation cap, the medium-sharing flows
  cannot run at this node count.  Instead of silently clamping the
  utilisation right-hand side to zero, the builder zeroes those flows'
  caps, books ``scheduler.medium_saturated``, and records the degrade
  on the system (:attr:`ConstraintSystem.medium_saturated`) so callers
  can tell "the optimiser chose zero" from "the medium was full".

Communication-pattern semantics mirror the LP exactly: ``all_one``
aggregations pipeline across periods and therefore appear in neither
the latency rows nor the utilisation row (their airtime is still
reported per allocation); a medium-sharing flow with a positive cap
contributes its fixed burst airtime to utilisation even at zero
allocated electrodes, because the constraint charges it conservatively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.errors import SchedulingError
from repro.network.packet import PACKET_OVERHEAD_BITS
from repro.network.tdma import TDMAConfig
from repro.scheduler.model import (
    BASE_STATIC_MW,
    MI_KF_NVM_BYTES_PER_E2,
    PAIR_NORM,
    TaskModel,
)
from repro.storage.nvm import NVMDevice
from repro.telemetry import NULL_TELEMETRY, TelemetryLike

if TYPE_CHECKING:
    from repro.scheduler.ilp import Flow, Schedule

#: Medium-utilisation cap: the TDMA schedule cannot fill more than this
#: fraction of wall-clock time (guard slots, resync).
NETWORK_UTILISATION_CAP = 0.95

#: Electrode bound of a flow with no ``electrode_cap`` (the fig. 8 mode:
#: ADCs are added until another constraint binds).
UNBOUNDED_CAP = 4096.0

#: Feasibility slack the verifier grants (LP/solver roundoff, not model
#: error): absolute on electrode counts, relative on budget rows.
VERIFY_TOL = 1e-6


def comm_multiplier(task: TaskModel, n_nodes: int) -> float:
    """How many bursts per period the pattern puts on the shared medium."""
    if task.comm == "none":
        return 0.0
    if task.comm == "one_all":
        return 1.0
    if task.comm == "all_all":
        return float(n_nodes)
    return float(max(0, n_nodes - 1))  # all_one


def _shares_medium(task: TaskModel) -> bool:
    """Whether the flow occupies the shared-medium utilisation budget.

    ``one_all`` / ``all_all`` exchanges do; ``all_one`` aggregations
    pipeline across periods and local (``none``) stages send nothing.
    """
    return task.comm in ("one_all", "all_all")


@dataclass(frozen=True)
class FlowRow:
    """One flow's exact coefficients in every constraint it appears in."""

    flow: "Flow"
    #: final upper bound on the decision variable (electrodes; total for
    #: centralised flows, per-node otherwise)
    cap: float
    #: the cap before network-latency zeroing — the LP's breakpoint grid
    #: for quadratic flows is built from this (kept for bit-identity)
    power_grid_cap: float
    #: objective multiplier: aggregate electrodes per decision unit
    count: float
    #: fraction of the linear power cost the binding node pays
    linear_share: float
    #: bursts per period on the shared medium
    mult: float
    #: airtime per electrode per burst (ms)
    airtime_slope_ms: float
    #: airtime per burst independent of electrodes (ms)
    airtime_fixed_ms: float
    #: RHS of this flow's latency row (ms); None = no latency row
    latency_rhs_ms: float | None
    #: whether the flow occupies the shared-medium utilisation budget
    #: (one_all / all_all patterns; all_one pipelines and is exempt)
    shares_medium: bool
    #: electrode coefficient in the utilisation row
    #: (``mult * slope / period``; zero when the flow cannot run)
    util_slope_per_ms: float
    #: NVM bytes per electrode per ms
    nvm_per_ms: float

    @property
    def task(self) -> TaskModel:
        return self.flow.task

    def dynamic_mw(
        self, electrodes: float | np.ndarray
    ) -> float | np.ndarray:
        """Exact dynamic power on the binding node (mW).

        The one dynamic-power formula: the report, the LP's breakpoint
        grid (``electrodes`` may be an array) and the linear LP
        coefficient (``dynamic_mw(1.0)``) all evaluate it.
        """
        task = self.task
        return (
            task.dyn_uw_per_electrode * electrodes * self.linear_share / 1e3
            + task.pairwise_uw * electrodes * electrodes / (1e3 * PAIR_NORM)
        )

    def airtime_ms(self, electrodes: float) -> float:
        """Airtime per period, as reported on the allocation.

        A flow whose cap collapsed to zero cannot burst at all — it
        books no airtime (this is the reporting bugfix: zero-cap flows
        used to contribute ``mult * fixed`` phantom airtime).
        """
        if self.mult == 0.0 or self.cap <= 0.0:
            return 0.0
        return self.mult * (
            self.airtime_slope_ms * electrodes + self.airtime_fixed_ms
        )

    def utilisation(self, electrodes: float) -> float:
        """This flow's share of the medium duty cycle (constraint LHS)."""
        if not self.shares_medium or self.cap <= 0.0:
            return 0.0
        return self.airtime_ms(electrodes) / self.task.period_ms


@dataclass(frozen=True)
class ConstraintSystem:
    """The exact feasible region of one scheduling instance."""

    n_nodes: int
    power_budget_mw: float
    static_mw: float
    dyn_budget_mw: float
    rows: tuple[FlowRow, ...]
    #: fixed burst airtime already committed by capped-in sharing flows
    fixed_util: float
    #: electrode-dependent utilisation budget remaining after fixed_util
    util_rhs: float
    #: True when fixed bursts alone exceeded the cap and the sharing
    #: flows were explicitly degraded to zero (counted, never silent)
    medium_saturated: bool
    nvm_budget_bytes_per_ms: float

    # -- evaluation ---------------------------------------------------------------

    def node_power_mw(self, electrodes: Sequence[float]) -> float:
        """Exact binding-node power (static + quadratic dynamic)."""
        return self.static_mw + sum(
            row.dynamic_mw(e) for row, e in zip(self.rows, electrodes)
        )

    def utilisation(self, electrodes: Sequence[float]) -> float:
        """Shared-medium duty cycle: the utilisation constraint's LHS."""
        return sum(
            row.utilisation(e) for row, e in zip(self.rows, electrodes)
        )

    # -- verification -------------------------------------------------------------

    def verify(self, electrodes: Sequence[float]) -> tuple[str, ...]:
        """Check a solution against every exact row, to :data:`VERIFY_TOL`;
        return violations.

        An empty tuple means feasible.  The property tests call it on the
        LP's own output as an independent oracle.
        """
        violations: list[str] = []
        for row, e in zip(self.rows, electrodes):
            slack = VERIFY_TOL * max(1.0, row.cap)
            if e < -VERIFY_TOL:
                violations.append(
                    f"{row.task.name}: negative allocation {e:.6g}"
                )
            if e > row.cap + slack:
                violations.append(
                    f"{row.task.name}: {e:.6g} electrodes over cap "
                    f"{row.cap:.6g}"
                )
            if row.latency_rhs_ms is not None:
                lhs = row.mult * row.airtime_slope_ms * e
                if lhs > row.latency_rhs_ms * (1 + VERIFY_TOL) + VERIFY_TOL:
                    violations.append(
                        f"{row.task.name}: airtime {lhs:.6g} ms over "
                        f"latency budget {row.latency_rhs_ms:.6g} ms"
                    )
        power = self.node_power_mw(electrodes)
        if power > self.power_budget_mw * (1 + VERIFY_TOL) + VERIFY_TOL:
            violations.append(
                f"node power {power:.6g} mW over budget "
                f"{self.power_budget_mw:.6g} mW"
            )
        util = self.utilisation(electrodes)
        if util > NETWORK_UTILISATION_CAP * (1 + VERIFY_TOL) + VERIFY_TOL:
            violations.append(
                f"medium utilisation {util:.6g} over cap "
                f"{NETWORK_UTILISATION_CAP:.6g}"
            )
        nvm = sum(row.nvm_per_ms * e for row, e in zip(self.rows, electrodes))
        if nvm > self.nvm_budget_bytes_per_ms * (1 + VERIFY_TOL) + VERIFY_TOL:
            violations.append(
                f"NVM traffic {nvm:.6g} B/ms over bandwidth "
                f"{self.nvm_budget_bytes_per_ms:.6g} B/ms"
            )
        return tuple(violations)

    # -- materialisation ----------------------------------------------------------

    def schedule(self, electrodes: Sequence[float]) -> "Schedule":
        """Materialise a :class:`~repro.scheduler.ilp.Schedule`.

        The one shared reporting path: ``network_utilisation`` and
        ``node_power_mw`` are the utilisation and power constraints'
        LHS at this solution, so they stay within their caps whenever
        the solution is feasible (``all_one`` aggregations pipeline and
        are exempt, exactly as in the constraint; a centralised flow's
        linear power is the binding node's share).
        """
        from repro.scheduler.ilp import FlowAllocation, Schedule

        es = [float(e) for e in electrodes]
        allocations = [
            FlowAllocation(
                flow=row.flow,
                electrodes_per_node=(
                    e / self.n_nodes if row.task.centralised else e
                ),
                aggregate_electrodes=e * row.count,
                power_mw_per_node=row.dynamic_mw(e),
                airtime_ms_per_period=row.airtime_ms(e),
            )
            for row, e in zip(self.rows, es)
        ]
        return Schedule(
            allocations=allocations,
            n_nodes=self.n_nodes,
            power_budget_mw=self.power_budget_mw,
            node_power_mw=self.node_power_mw(es),
            network_utilisation=self.utilisation(es),
        )


def build_constraints(
    n_nodes: int,
    flows: Sequence["Flow"],
    power_budget_mw: float,
    tdma: TDMAConfig,
    telemetry: TelemetryLike = NULL_TELEMETRY,
) -> ConstraintSystem:
    """Build the exact constraint rows for one scheduling instance.

    Raises:
        SchedulingError: when static power alone exceeds the budget —
            no allocation can fix that.
    """
    static_mw = _static_mw(flows)
    dyn_budget = power_budget_mw - static_mw
    if dyn_budget <= 0:
        raise SchedulingError(
            f"static power {static_mw:.2f} mW exceeds the "
            f"{power_budget_mw:.2f} mW budget"
        )

    rate_kbps_ms = tdma.radio.data_rate_mbps * 1e3  # bits per ms
    bw_bytes_per_ms = NVMDevice.read_bandwidth_mbps() * 1e3 / 8

    caps: list[float] = []
    for flow in flows:
        cap = (
            flow.electrode_cap
            if flow.electrode_cap is not None
            else UNBOUNDED_CAP
        )
        task = flow.task
        if task.centralised:
            budget_bytes = bw_bytes_per_ms * task.period_ms
            central = float(np.sqrt(budget_bytes / MI_KF_NVM_BYTES_PER_E2))
            cap = min(cap * n_nodes, central)
        share = 1.0 / n_nodes if task.centralised else 1.0
        cap = min(cap, _power_cap(task, dyn_budget, share))
        caps.append(max(cap, 0.0))
    power_grid_caps = list(caps)

    mults: list[float] = []
    slopes: list[float] = []
    fixeds: list[float] = []
    latency_rhs: list[float | None] = []
    util_slopes: list[float] = []
    for i, flow in enumerate(flows):
        task = flow.task
        mult = comm_multiplier(task, n_nodes)
        mults.append(mult)
        if mult == 0.0:
            slopes.append(0.0)
            fixeds.append(0.0)
            latency_rhs.append(None)
            util_slopes.append(0.0)
            continue
        slope = 8.0 * task.wire_bytes_per_electrode / rate_kbps_ms
        fixed = (
            (PACKET_OVERHEAD_BITS + 8.0 * task.wire_bytes_fixed)
            / rate_kbps_ms
            + tdma.guard_ms
        )
        slopes.append(slope)
        fixeds.append(fixed)
        if not _shares_medium(task):
            # all-to-one aggregations pipeline across periods: no hard
            # latency row, no utilisation share
            latency_rhs.append(None)
            util_slopes.append(0.0)
            continue
        rhs = task.net_budget_ms - mult * fixed
        if rhs <= 0:
            # even an empty burst from every sender overruns the budget:
            # the flow cannot run at this node count
            caps[i] = 0.0
            latency_rhs.append(None)
            util_slopes.append(0.0)
        else:
            latency_rhs.append(rhs if slope > 0 else None)
            util_slopes.append(mult * slope / task.period_ms)

    fixed_util = sum(
        mults[i] * fixeds[i] / flow.task.period_ms
        for i, flow in enumerate(flows)
        if caps[i] > 0 and _shares_medium(flow.task)
    )
    medium_saturated = fixed_util >= NETWORK_UTILISATION_CAP
    if medium_saturated:
        # The fixed bursts alone fill the medium: no electrode budget is
        # left for any sharing flow.  Degrade explicitly — zero their
        # caps and count the event — instead of silently clamping the
        # utilisation RHS to zero and letting the report disagree with
        # the constraint.
        telemetry.inc("scheduler.medium_saturated")
        for i, flow in enumerate(flows):
            if _shares_medium(flow.task):
                caps[i] = 0.0
        fixed_util = 0.0

    rows = tuple(
        FlowRow(
            flow=flow,
            cap=caps[i],
            power_grid_cap=power_grid_caps[i],
            count=1.0 if flow.task.centralised else float(n_nodes),
            linear_share=1.0 / n_nodes if flow.task.centralised else 1.0,
            mult=mults[i],
            airtime_slope_ms=slopes[i],
            airtime_fixed_ms=fixeds[i],
            latency_rhs_ms=latency_rhs[i],
            shares_medium=_shares_medium(flow.task),
            util_slope_per_ms=util_slopes[i],
            nvm_per_ms=(
                flow.task.nvm_bytes_per_electrode_period
                / flow.task.period_ms
            ),
        )
        for i, flow in enumerate(flows)
    )
    return ConstraintSystem(
        n_nodes=n_nodes,
        power_budget_mw=power_budget_mw,
        static_mw=static_mw,
        dyn_budget_mw=dyn_budget,
        rows=rows,
        fixed_util=fixed_util,
        util_rhs=max(NETWORK_UTILISATION_CAP - fixed_util, 0.0),
        medium_saturated=medium_saturated,
        nvm_budget_bytes_per_ms=bw_bytes_per_ms,
    )


def _static_mw(flows: Sequence["Flow"]) -> float:
    """Static power of the union of powered PEs plus baseline."""
    from repro.hardware.catalog import get_pe
    from repro.storage.nvm import LEAKAGE_MW

    pe_union: set[str] = set()
    uses_nvm = False
    for flow in flows:
        pe_union.update(flow.task.pe_names)
        uses_nvm = uses_nvm or flow.task.uses_nvm
    # sorted: set order follows PYTHONHASHSEED, and so would the sum's
    # last bit
    static = sum(get_pe(name).static_uw for name in sorted(pe_union)) / 1e3
    static += BASE_STATIC_MW
    if uses_nvm:
        static += LEAKAGE_MW
    return static


def _power_cap(task: TaskModel, dyn_budget_mw: float, share: float) -> float:
    """Max electrodes the binding node's dynamic budget can pay for."""
    if dyn_budget_mw <= 0:
        return 0.0
    budget_uw = dyn_budget_mw * 1e3
    a = task.pairwise_uw / PAIR_NORM
    b = task.dyn_uw_per_electrode * share
    if a == 0:
        return budget_uw / b if b > 0 else float("inf")
    return (-b + (b * b + 4 * a * budget_uw) ** 0.5) / (2 * a)
