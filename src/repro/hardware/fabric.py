"""The per-node processor fabric: PEs plus programmable switches.

The fabric is a directed graph whose vertices are PE instances and whose
edges are circuit-switched connections configured by the microcontroller
(paper Fig. 2b).  SCALO does not support loops — pipelines must be acyclic —
so configuration is validated to be a DAG.  The fabric can host several
concurrent pipelines (flows); the hardware tags signals per flow so two
flows may share a PE (paper §3.5).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dag import DAG
from repro.errors import FabricError
from repro.hardware.catalog import get_pe
from repro.hardware.pe import ProcessingElement
from repro.hardware.pipeline import Pipeline


@dataclass
class Fabric:
    """A configurable collection of PE instances and switch connections."""

    pes: dict[str, ProcessingElement] = field(init=False, default_factory=dict)
    graph: DAG[str] = field(init=False, default_factory=DAG)

    def add_pe(self, name: str) -> str:
        """Instantiate catalog PE ``name``; returns the instance id.

        Multiple instances of the same PE type (e.g. the ten MAD units in
        the LIN ALG cluster) get distinct ids ``MAD``, ``MAD.1``, ...
        """
        count = sum(1 for key in self.pes if key.split(".")[0] == name)
        instance_id = f"{name}.{count}" if count else name
        self.pes[instance_id] = ProcessingElement(get_pe(name))
        self.graph.add_node(instance_id)
        return instance_id

    def connect(self, src: str, dst: str) -> None:
        """Configure a switch path from ``src`` to ``dst``."""
        for endpoint in (src, dst):
            if endpoint not in self.pes:
                raise FabricError(f"unknown PE instance {endpoint!r}")
        if src == dst:
            raise FabricError("a PE cannot feed itself (no loops in SCALO)")
        if not self.graph.add_edge(src, dst):
            raise FabricError(
                f"connecting {src} -> {dst} would create a cycle; "
                "SCALO pipelines are loop-free"
            )

    def pipeline(self, name: str, instance_ids: list[str]) -> Pipeline:
        """Materialise a pipeline along connected instances.

        Validates that consecutive instances are actually wired together.
        """
        pipe = Pipeline(name)
        for i, instance_id in enumerate(instance_ids):
            if instance_id not in self.pes:
                raise FabricError(f"unknown PE instance {instance_id!r}")
            if i and not self.graph.has_edge(instance_ids[i - 1], instance_id):
                raise FabricError(
                    f"{instance_ids[i - 1]} is not wired to {instance_id}"
                )
            pipe.add(self.pes[instance_id])
        return pipe

    def wire_chain(self, name: str, pe_names: list[str]) -> Pipeline:
        """Convenience: instantiate and connect a fresh chain of PEs."""
        ids = [self.add_pe(pe_name) for pe_name in pe_names]
        for src, dst in zip(ids, ids[1:]):
            self.connect(src, dst)
        return self.pipeline(name, ids)
