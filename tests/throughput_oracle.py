"""Reference closed-form throughput (the artifact's `lineqn` shortcut).

The paper's artifact ships "reduced linear equations that resulted from a
prior solution" for fast plotting.  This is that shortcut, kept as a test
oracle: for a *single* flow the LP's optimum is the minimum of four caps
(power, network latency, NVM bandwidth, electrode count), each derived
here from the task model without the constraint builder.  The tests
check the LP in :mod:`repro.scheduler.ilp` against it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hardware.catalog import get_pe
from repro.network.packet import PACKET_OVERHEAD_BITS
from repro.network.tdma import TDMAConfig
from repro.scheduler.ilp import NETWORK_UTILISATION_CAP
from repro.scheduler.model import (
    BASE_STATIC_MW,
    MI_KF_NVM_BYTES_PER_E2,
    PAIR_NORM,
    TaskModel,
)
from repro.storage.nvm import LEAKAGE_MW, NVMDevice
from repro.units import NODE_POWER_CAP_MW, electrodes_to_mbps


@dataclass(frozen=True)
class ThroughputBreakdown:
    """The individual caps and the binding one."""

    power_cap: float
    network_cap: float
    nvm_cap: float
    electrode_cap: float

    @property
    def electrodes(self) -> float:
        return max(
            0.0,
            min(self.power_cap, self.network_cap, self.nvm_cap,
                self.electrode_cap),
        )

    @property
    def binding(self) -> str:
        caps = {
            "power": self.power_cap,
            "network": self.network_cap,
            "nvm": self.nvm_cap,
            "electrodes": self.electrode_cap,
        }
        return min(caps, key=caps.get)  # type: ignore[arg-type]


def static_power_mw(task: TaskModel) -> float:
    """Static power when only this task runs on a node."""
    static = sum(get_pe(name).static_uw for name in task.pe_names) / 1e3
    if task.uses_nvm:
        static += LEAKAGE_MW
    return static + BASE_STATIC_MW


def analytic_electrodes(
    task: TaskModel,
    n_nodes: int,
    power_budget_mw: float = NODE_POWER_CAP_MW,
    electrode_cap: float | None = None,
    tdma: TDMAConfig | None = None,
) -> ThroughputBreakdown:
    """Per-flow electrode caps (per node, or total for centralised)."""
    tdma = tdma if tdma is not None else TDMAConfig()
    dyn_budget_mw = power_budget_mw - static_power_mw(task)

    # power
    share = 1.0 / n_nodes if task.centralised else 1.0
    if dyn_budget_mw <= 0:
        power_cap = 0.0
    else:
        a = task.pairwise_uw / PAIR_NORM
        b = task.dyn_uw_per_electrode * share
        budget_uw = dyn_budget_mw * 1e3
        if a == 0:
            power_cap = budget_uw / b if b > 0 else float("inf")
        else:
            power_cap = (-b + np.sqrt(b * b + 4 * a * budget_uw)) / (2 * a)

    # network latency (all-to-one aggregations pipeline: no hard cap)
    if task.comm in ("none", "all_one"):
        network_cap = float("inf")
    else:
        mult = 1.0 if task.comm == "one_all" else float(n_nodes)
        rate_bits_per_ms = tdma.radio.data_rate_mbps * 1e3
        fixed = (
            (PACKET_OVERHEAD_BITS + 8 * task.wire_bytes_fixed)
            / rate_bits_per_ms
            + tdma.guard_ms
        )
        slope = 8 * task.wire_bytes_per_electrode / rate_bits_per_ms
        remaining = task.net_budget_ms - mult * fixed
        if remaining <= 0:
            network_cap = 0.0
        elif slope == 0:
            network_cap = float("inf")
        else:
            latency_cap = remaining / (mult * slope)
            # the shared medium cannot exceed its duty-cycle ceiling
            util_budget = (
                NETWORK_UTILISATION_CAP - mult * fixed / task.period_ms
            )
            util_cap = (
                util_budget * task.period_ms / (mult * slope)
                if util_budget > 0
                else 0.0
            )
            network_cap = min(latency_cap, util_cap)

    # NVM bandwidth
    bw_bytes_per_ms = NVMDevice.read_bandwidth_mbps() * 1e3 / 8
    if task.centralised:
        budget_bytes = bw_bytes_per_ms * task.period_ms
        nvm_cap = float(np.sqrt(budget_bytes / MI_KF_NVM_BYTES_PER_E2))
    elif task.nvm_bytes_per_electrode_period > 0:
        nvm_cap = (
            bw_bytes_per_ms
            * task.period_ms
            / task.nvm_bytes_per_electrode_period
        )
    else:
        nvm_cap = float("inf")

    if electrode_cap is None:
        e_cap = float("inf")
    else:
        e_cap = electrode_cap * n_nodes if task.centralised else electrode_cap
    return ThroughputBreakdown(power_cap, network_cap, nvm_cap, e_cap)


def analytic_throughput_mbps(
    task: TaskModel,
    n_nodes: int,
    power_budget_mw: float = NODE_POWER_CAP_MW,
    electrode_cap: float | None = None,
    tdma: TDMAConfig | None = None,
) -> float:
    """Closed-form twin of :func:`repro.scheduler.ilp.max_throughput_mbps`."""
    breakdown = analytic_electrodes(
        task, n_nodes, power_budget_mw, electrode_cap, tdma
    )
    count = 1.0 if task.centralised else float(n_nodes)
    return electrodes_to_mbps(breakdown.electrodes * count)
