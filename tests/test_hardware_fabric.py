"""Tests for the fabric and the pipeline latency roll-up."""

import pytest

from repro.errors import FabricError
from repro.hardware.catalog import get_pe
from repro.hardware.fabric import Fabric
from repro.hardware.pe import ProcessingElement
from repro.hardware.pipeline import Pipeline


class TestPipeline:
    def test_latency_is_sum_of_stages(self):
        pipe = Pipeline("detect")
        for name in ("FFT", "BBF", "SVM"):
            pipe.add(ProcessingElement(get_pe(name)))
        assert pipe.latency_ms == pytest.approx(4.0 + 4.0 + 1.67)


class TestFabric:
    def test_wire_chain_builds_pipeline(self):
        fabric = Fabric()
        pipe = fabric.wire_chain("detect", ["FFT", "BBF", "SVM"])
        assert [stage.pe.spec.name for stage in pipe.stages] == ["FFT", "BBF", "SVM"]
        assert len(fabric.pes) == 3

    def test_duplicate_instances_get_distinct_ids(self):
        fabric = Fabric()
        a = fabric.add_pe("BMUL")
        b = fabric.add_pe("BMUL")
        assert a != b

    def test_cycle_rejected(self):
        fabric = Fabric()
        a = fabric.add_pe("GATE")
        b = fabric.add_pe("FFT")
        fabric.connect(a, b)
        with pytest.raises(FabricError):
            fabric.connect(b, a)

    def test_self_loop_rejected(self):
        fabric = Fabric()
        a = fabric.add_pe("GATE")
        with pytest.raises(FabricError):
            fabric.connect(a, a)

    def test_pipeline_requires_wiring(self):
        fabric = Fabric()
        a = fabric.add_pe("GATE")
        b = fabric.add_pe("FFT")
        with pytest.raises(FabricError):
            fabric.pipeline("p", [a, b])

    def test_unknown_endpoint_rejected(self):
        fabric = Fabric()
        a = fabric.add_pe("GATE")
        with pytest.raises(FabricError):
            fabric.connect(a, "GHOST")

    def test_topological_order_respects_edges(self):
        fabric = Fabric()
        pipe = fabric.wire_chain("p", ["GATE", "FFT", "SVM"])
        order = fabric.graph.topological_order()
        assert order.index("GATE") < order.index("FFT") < order.index("SVM")
