"""Tests for schedule materialisation and the dataflow IR."""

import pytest

from repro.errors import CompilationError, SchedulingError
from repro.scheduler.dataflow import OPERATOR_PES, DataflowGraph
from repro.scheduler.ilp import Flow, SchedulerProblem
from repro.scheduler.model import seizure_detection_task, spike_sorting_task
from repro.scheduler.schedule import clock_divider_for_load, materialise


class TestClockDividers:
    def test_full_load_runs_at_max(self):
        assert clock_divider_for_load("DTW", 96) == 1

    def test_half_load_divides_by_two(self):
        assert clock_divider_for_load("DTW", 48) == 2

    def test_light_load_divides_deep(self):
        assert clock_divider_for_load("DTW", 6) == 16

    def test_zero_load_parks_the_clock(self):
        assert clock_divider_for_load("DTW", 0) >= 1

    def test_negative_rejected(self):
        with pytest.raises(SchedulingError):
            clock_divider_for_load("DTW", -1)


class TestMaterialise:
    def test_emits_dividers_and_frame(self):
        schedule = SchedulerProblem(
            4,
            [Flow(seizure_detection_task(), electrode_cap=48)],
        ).solve()
        materialised = materialise(schedule)
        assert set(materialised.dividers) >= {"FFT", "BBF", "XCOR", "SVM"}
        assert all(d >= 1 for d in materialised.dividers.values())
        assert len(materialised.tdma_frame.slot_owners) >= 4

    def test_shared_pe_takes_fastest_demand(self):
        # both flows use the SC PE; the divider must satisfy the larger load
        schedule = SchedulerProblem(
            2,
            [
                Flow(spike_sorting_task(), electrode_cap=96),
                Flow(spike_sorting_task(), electrode_cap=12),
            ],
        ).solve()
        materialised = materialise(schedule)
        heavy = max(
            a.electrodes_per_node for a in schedule.allocations
        )
        assert materialised.dividers["SC"] == clock_divider_for_load("SC", heavy)


class TestDataflow:
    def test_chain_and_order(self):
        graph = DataflowGraph()
        ops = graph.chain(["window", "fft", "svm"])
        assert graph.operators == ops
        assert [op.name for op in ops] == ["window", "fft", "svm"]

    def test_pe_mapping(self):
        graph = DataflowGraph()
        graph.chain(["window", "fft", "svm"])
        assert graph.pe_names == ["GATE", "FFT", "SVM"]

    def test_mc_operators_excluded_from_pes(self):
        graph = DataflowGraph()
        graph.chain(["window", "emd"])
        assert graph.pe_names == ["GATE"]
        assert OPERATOR_PES["emd"] == "MC"

    def test_cycle_rejected(self):
        graph = DataflowGraph()
        a, b = graph.chain(["window", "fft"])
        with pytest.raises(CompilationError):
            graph.connect(b, a)

    def test_unknown_operator_rejected(self):
        graph = DataflowGraph()
        with pytest.raises(CompilationError):
            graph.add_operator("teleport")

    def test_validate_rejects_empty_and_disconnected(self):
        graph = DataflowGraph()
        with pytest.raises(CompilationError):
            graph.validate()
        graph.add_operator("fft")
        graph.add_operator("svm")
        with pytest.raises(CompilationError):
            graph.validate()
