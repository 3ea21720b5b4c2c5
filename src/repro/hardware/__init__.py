"""Hardware substrate: PE catalog, clock domains, fabric, pipelines.

This package models the per-implant processor of paper Fig. 2b using the
published Table 1 numbers.  Everything is deterministic in latency and
power, which is the property SCALO's ILP scheduler relies on.
"""
