"""The on-node runtime loader (paper §3.7's last mile).

The MC "listens to the external radio for data and code, and
reconfigures PEs and pipelines".  This module is that runtime: it parses
a configuration program (the C text :mod:`repro.scheduler.codegen`
emits), and applies it — instantiating PEs on a fabric, setting their
clock dividers, wiring the flow routes, and loading the TDMA frame.

Together with codegen this closes the toolchain loop, and the tests
assert the round trip: schedule -> program -> loader -> the same
dividers and routes the schedule specified.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.errors import CompilationError
from repro.hardware.fabric import Fabric

_DIVIDER_RE = re.compile(
    r"scalo_set_clock_divider\(PE_(\w+),\s*(\d+)\);"
)
_BUDGET_RE = re.compile(r"scalo_set_power_budget_mw\(([\d.]+)\);")
_FLOW_RE = re.compile(
    r'scalo_flow_t \*(\w+) = scalo_new_flow\("([^"]+)",\s*(\d+)\);'
)
_CONNECT_RE = re.compile(r"scalo_connect\((\w+), PE_(\w+), PE_(\w+)\);")
_COMM_RE = re.compile(
    r"scalo_set_comm\((\w+), COMM_(\w+), ([\d.]+) /\* ms budget \*/\);"
)
_TDMA_RE = re.compile(
    r"static const uint8_t tdma_frame\[\] = \{([^}]*)\};"
)


@dataclass
class FlowConfig:
    """One flow as parsed from the program."""

    name: str
    electrodes: int
    route: list[tuple[str, str]] = field(default_factory=list)
    comm: str | None = None
    net_budget_ms: float | None = None


@dataclass
class LoadedConfiguration:
    """The runtime's view after applying a configuration program."""

    power_budget_mw: float
    dividers: dict[str, int]
    flows: dict[str, FlowConfig]
    tdma_frame: list[int]
    fabric: Fabric


def load_config_program(program: str) -> LoadedConfiguration:
    """Parse and apply one emitted configuration program.

    Raises:
        CompilationError: when mandatory sections are missing or the
            program references inconsistent flows.
    """
    budget_match = _BUDGET_RE.search(program)
    if budget_match is None:
        raise CompilationError("program sets no power budget")
    power_budget_mw = float(budget_match.group(1))

    dividers = {
        name: int(value) for name, value in _DIVIDER_RE.findall(program)
    }
    if not dividers:
        raise CompilationError("program configures no clock dividers")

    flows: dict[str, FlowConfig] = {}
    var_to_name: dict[str, str] = {}
    for var, name, electrodes in _FLOW_RE.findall(program):
        flows[name] = FlowConfig(name=name, electrodes=int(electrodes))
        var_to_name[var] = name
    for var, src, dst in _CONNECT_RE.findall(program):
        if var not in var_to_name:
            raise CompilationError(f"connect references unknown flow {var!r}")
        flows[var_to_name[var]].route.append((src, dst))
    for var, comm, budget in _COMM_RE.findall(program):
        if var not in var_to_name:
            raise CompilationError(f"comm references unknown flow {var!r}")
        flow = flows[var_to_name[var]]
        flow.comm = comm.lower()
        flow.net_budget_ms = float(budget)

    tdma_match = _TDMA_RE.search(program)
    if tdma_match is None:
        raise CompilationError("program loads no TDMA frame")
    tdma_frame = [
        int(token) for token in tdma_match.group(1).split(",") if token.strip()
    ]
    if not tdma_frame:
        raise CompilationError("empty TDMA frame")

    # apply: instantiate each referenced PE once, set dividers, wire routes
    fabric = Fabric()
    for pe_name, divider in dividers.items():
        instance = fabric.add_pe(pe_name)
        fabric.pes[instance].clock.divider = divider
    for flow in flows.values():
        for src, dst in flow.route:
            for endpoint in (src, dst):
                if endpoint not in fabric.pes:
                    raise CompilationError(
                        f"flow {flow.name!r} routes through unconfigured "
                        f"PE {endpoint}"
                    )
            if not fabric.graph.has_edge(src, dst):
                fabric.connect(src, dst)

    return LoadedConfiguration(
        power_budget_mw=power_budget_mw,
        dividers=dividers,
        flows=flows,
        tdma_frame=tdma_frame,
        fabric=fabric,
    )
