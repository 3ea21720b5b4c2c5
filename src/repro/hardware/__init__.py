"""Hardware substrate: PE catalog, clock domains, fabric, pipelines.

This package models the per-implant processor of paper Fig. 2b using the
published Table 1 numbers.  Everything is deterministic in latency and
power, which is the property SCALO's ILP scheduler relies on.
"""

from repro.hardware.catalog import (
    PE_CATALOG,
    PESpec,
    SCALO_ONLY_PES,
    catalog_names,
    format_table1,
    get_pe,
    total_area_kge,
)
from repro.hardware.fabric import Fabric
from repro.hardware.microcontroller import MC_FREQ_MHZ
from repro.hardware.pe import ClockDomain, ProcessingElement
from repro.hardware.pipeline import Pipeline, PipelineStage

__all__ = [
    "PE_CATALOG",
    "PESpec",
    "SCALO_ONLY_PES",
    "catalog_names",
    "format_table1",
    "get_pe",
    "total_area_kge",
    "Fabric",
    "MC_FREQ_MHZ",
    "ClockDomain",
    "ProcessingElement",
    "Pipeline",
    "PipelineStage",
]
