"""Pipeline composition: the latency roll-up over a chain of PEs.

A SCALO application maps to one or more linear chains of PEs (plus forks
and joins handled by the fabric).  Because every PE has deterministic
latency, a pipeline's end-to-end latency is the sum of stage latencies —
the determinism that makes ILP scheduling possible (paper §3.5).  Power
is the scheduler's to account (:mod:`repro.scheduler.constraints`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hardware.pe import ProcessingElement


@dataclass
class PipelineStage:
    """One stage of a pipeline: a PE."""

    pe: ProcessingElement

    @property
    def latency_ms(self) -> float:
        return self.pe.latency_ms


@dataclass
class Pipeline:
    """An ordered chain of PE stages with a latency roll-up."""

    name: str
    stages: list[PipelineStage] = field(init=False, default_factory=list)

    def add(self, pe: ProcessingElement) -> "Pipeline":
        """Append a stage; returns self for chaining."""
        self.stages.append(PipelineStage(pe))
        return self

    @property
    def latency_ms(self) -> float:
        """End-to-end latency: sum of stage latencies."""
        return sum(stage.latency_ms for stage in self.stages)
