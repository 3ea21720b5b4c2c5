"""Schedule materialisation: TDMA slots and per-PE clock dividers.

The ILP's output is translated into the artefacts the hardware consumes
(paper §3.5/3.7): a fixed TDMA slot assignment proportional to each
node's airtime demand, and per-PE clock dividers — the slowest clock that
sustains each PE's share of the electrode stream.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SchedulingError
from repro.hardware.catalog import get_pe
from repro.hardware.pe import ClockDomain
from repro.network.tdma import TDMAConfig, TDMASchedule
from repro.scheduler.ilp import Schedule
from repro.units import ELECTRODES_PER_NODE


def clock_divider_for_load(pe_name: str, electrodes: float) -> int:
    """The power-optimal divider for a PE processing ``electrodes`` channels.

    A PE at its maximum frequency sustains ``ELECTRODES_PER_NODE``
    channels; the divider is the largest integer k with f_max/k still
    meeting the required rate (paper §3.2, "Optimal Power Tuning").
    """
    if electrodes < 0:
        raise SchedulingError("invalid electrode counts")
    spec = get_pe(pe_name)
    clock = ClockDomain(spec.max_freq_mhz)
    if electrodes == 0:
        return int(spec.max_freq_mhz // (spec.max_freq_mhz / 2**10)) or 1
    load = min(1.0, electrodes / ELECTRODES_PER_NODE)
    return clock.slowest_divider_for(spec.max_freq_mhz * load)


@dataclass
class MaterialisedSchedule:
    """PE clock settings plus the TDMA frame for a solved schedule."""

    schedule: Schedule
    dividers: dict[str, int]
    tdma_frame: TDMASchedule


def materialise(schedule: Schedule) -> MaterialisedSchedule:
    """Emit dividers and a TDMA frame (default radio) from a solved
    schedule.

    Slots are allocated round-robin, with each node's slot count
    proportional to the total per-period airtime of the flows (at least
    one slot per node so control traffic can flow).
    """
    tdma = TDMAConfig()

    dividers: dict[str, int] = {}
    for allocation in schedule.allocations:
        electrodes = allocation.electrodes_per_node
        for pe_name in allocation.flow.task.pe_names:
            divider = clock_divider_for_load(pe_name, electrodes)
            # a PE shared by several flows must satisfy the fastest demand
            dividers[pe_name] = min(dividers.get(pe_name, divider), divider)

    total_airtime = sum(
        a.airtime_ms_per_period for a in schedule.allocations
    )
    slot_ms = tdma.slot_ms()
    slots_per_node = max(1, round(total_airtime / max(slot_ms, 1e-9)
                                  / schedule.n_nodes))
    frame = TDMASchedule.round_robin(tdma, schedule.n_nodes, slots_per_node)
    return MaterialisedSchedule(schedule, dividers, frame)
