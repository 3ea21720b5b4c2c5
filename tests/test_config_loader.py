"""Tests: the codegen -> loader round trip (paper §3.7's toolchain loop)."""

import pytest

from repro.core.config_loader import load_config_program
from repro.errors import CompilationError
from repro.scheduler.codegen import emit_config_program
from repro.scheduler.ilp import Flow, SchedulerProblem
from repro.scheduler.model import hash_similarity_task, seizure_detection_task
from repro.scheduler.schedule import materialise


@pytest.fixture(scope="module")
def toolchain():
    schedule = SchedulerProblem(
        4,
        [
            Flow(seizure_detection_task(), electrode_cap=96),
            Flow(hash_similarity_task("all_all", net_budget_ms=1.0),
                 electrode_cap=96),
        ],
    ).solve()
    materialised = materialise(schedule)
    program = emit_config_program(materialised, node_id=0)
    return schedule, materialised, program


class TestRoundTrip:
    def test_dividers_survive(self, toolchain):
        _, materialised, program = toolchain
        loaded = load_config_program(program)
        assert loaded.dividers == materialised.dividers

    def test_budget_survives(self, toolchain):
        schedule, _, program = toolchain
        loaded = load_config_program(program)
        assert loaded.power_budget_mw == schedule.power_budget_mw

    def test_flows_and_routes_survive(self, toolchain):
        schedule, _, program = toolchain
        loaded = load_config_program(program)
        assert set(loaded.flows) == {
            a.flow.task.name for a in schedule.allocations
        }
        detect = loaded.flows["seizure_detection"]
        chain = list(seizure_detection_task().pe_names)
        assert detect.route == list(zip(chain, chain[1:]))
        assert detect.electrodes == int(
            next(
                a.electrodes_per_node for a in schedule.allocations
                if a.flow.task.name == "seizure_detection"
            )
        )

    def test_comm_pattern_survives(self, toolchain):
        _, _, program = toolchain
        loaded = load_config_program(program)
        hash_flow = loaded.flows["hash_similarity_all_all"]
        assert hash_flow.comm == "all_all"
        assert hash_flow.net_budget_ms == 1.0

    def test_tdma_frame_survives(self, toolchain):
        _, materialised, program = toolchain
        loaded = load_config_program(program)
        assert loaded.tdma_frame == materialised.tdma_frame.slot_owners

    def test_fabric_is_wired_and_powered(self, toolchain):
        _, _, program = toolchain
        loaded = load_config_program(program)
        order = loaded.fabric.graph.topological_order()
        assert order.index("FFT") < order.index("SVM")
        assert set(loaded.fabric.pes) == set(loaded.dividers)


class TestLoaderValidation:
    def test_missing_budget_rejected(self):
        with pytest.raises(CompilationError):
            load_config_program("void configure(void) {}")

    def test_missing_tdma_rejected(self, toolchain):
        _, _, program = toolchain
        broken = program[: program.index("static const uint8_t")]
        broken += "}"
        with pytest.raises(CompilationError):
            load_config_program(broken)

    def test_unknown_flow_reference_rejected(self, toolchain):
        _, _, program = toolchain
        broken = program.replace(
            "scalo_connect(flow0,", "scalo_connect(ghost,", 1
        )
        with pytest.raises(CompilationError):
            load_config_program(broken)
