"""The distributed SCALO system core: nodes, system, architectures,
thermal model, clock sync."""

from repro.core.architectures import (
    DESIGNS,
    EXACT_SORT_DTW_FACTOR,
    TASKS,
    architecture_throughput,
    exact_sorting_task,
    fig8a_table,
)
from repro.core.clock_sync import (
    NodeClock,
    SNTPSynchroniser,
    SyncReport,
    TARGET_PRECISION_US,
)
from repro.core.config_loader import (
    FlowConfig,
    LoadedConfiguration,
    load_config_program,
)
from repro.core.node import ScaloNode
from repro.core.system import ScaloSystem
from repro.core.thermal import (
    BRAIN_RADIUS_MM,
    DEFAULT_SPACING_MM,
    MAX_TEMP_RISE_C,
    PlacementCheck,
    check_placement,
    max_implants,
    relative_temperature_rise,
    temperature_rise_c,
)

__all__ = [
    "DESIGNS",
    "EXACT_SORT_DTW_FACTOR",
    "TASKS",
    "architecture_throughput",
    "exact_sorting_task",
    "fig8a_table",
    "NodeClock",
    "SNTPSynchroniser",
    "SyncReport",
    "TARGET_PRECISION_US",
    "FlowConfig",
    "LoadedConfiguration",
    "load_config_program",
    "ScaloNode",
    "ScaloSystem",
    "BRAIN_RADIUS_MM",
    "DEFAULT_SPACING_MM",
    "MAX_TEMP_RISE_C",
    "PlacementCheck",
    "check_placement",
    "max_implants",
    "relative_temperature_rise",
    "temperature_rise_c",
]
