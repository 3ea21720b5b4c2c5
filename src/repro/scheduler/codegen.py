"""Configuration-program emission (paper §3.7's final lowering step).

The real toolchain translates the ILP's output into a C program — calls
into a library of predefined functions that set PE parameters and switch
connections — which is then compiled to a RISC-V binary for the per-node
MC.  This module emits that C program as text from a materialised
schedule, so the reproduction covers the full ILP -> binary path up to
the (off-repo) RISC-V compiler.
"""

from __future__ import annotations

from repro.scheduler.schedule import MaterialisedSchedule

_HEADER = """\
/* Auto-generated SCALO node configuration.
 * Produced by the ILP scheduler; compile against scalo_runtime.h
 * and load through the external radio (see paper Sec. 3.7).
 */
#include "scalo_runtime.h"
"""


def emit_config_program(
    materialised: MaterialisedSchedule, node_id: int = 0
) -> str:
    """Render the per-node configuration program as C source text."""
    schedule = materialised.schedule
    lines = [_HEADER]
    lines.append(f"void configure_node_{node_id}(void) {{")
    lines.append(f"    scalo_set_power_budget_mw({schedule.power_budget_mw:g});")
    lines.append("")
    lines.append("    /* per-PE clock dividers (f_max / k) */")
    for pe_name, divider in sorted(materialised.dividers.items()):
        lines.append(f"    scalo_set_clock_divider(PE_{pe_name}, {divider});")
    lines.append("")
    lines.append("    /* flows: electrode allocation and switch routes */")
    for flow_index, allocation in enumerate(schedule.allocations):
        task = allocation.flow.task
        electrodes = int(allocation.electrodes_per_node)
        lines.append(
            f"    scalo_flow_t *flow{flow_index} = "
            f"scalo_new_flow(\"{task.name}\", {electrodes});"
        )
        chain = list(task.pe_names)
        for src, dst in zip(chain, chain[1:]):
            lines.append(
                f"    scalo_connect(flow{flow_index}, "
                f"PE_{src}, PE_{dst});"
            )
        if task.comm != "none":
            lines.append(
                f"    scalo_set_comm(flow{flow_index}, "
                f"COMM_{task.comm.upper()}, "
                f"{task.net_budget_ms:g} /* ms budget */);"
            )
        lines.append("")
    lines.append("    /* TDMA frame */")
    owners = ", ".join(str(o) for o in materialised.tdma_frame.slot_owners)
    lines.append(
        f"    static const uint8_t tdma_frame[] = {{{owners}}};"
    )
    lines.append(
        "    scalo_load_tdma(tdma_frame, sizeof tdma_frame / "
        "sizeof tdma_frame[0]);"
    )
    lines.append("}")
    return "\n".join(lines) + "\n"
