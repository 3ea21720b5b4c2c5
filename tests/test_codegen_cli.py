"""Tests for configuration-program emission and the CLI."""

import pytest

from repro.__main__ import main as cli_main
from repro.scheduler.codegen import emit_all_nodes, emit_config_program
from repro.scheduler.ilp import Flow, SchedulerProblem
from repro.scheduler.model import hash_similarity_task, seizure_detection_task
from repro.scheduler.schedule import materialise


@pytest.fixture(scope="module")
def materialised():
    schedule = SchedulerProblem(
        3,
        [
            Flow(seizure_detection_task(), electrode_cap=96),
            Flow(hash_similarity_task("all_all", net_budget_ms=1.0),
                 electrode_cap=96),
        ],
    ).solve()
    return materialise(schedule)


class TestCodegen:
    def test_program_structure(self, materialised):
        program = emit_config_program(materialised, node_id=2)
        assert '#include "scalo_runtime.h"' in program
        assert "void configure_node_2(void)" in program
        assert "scalo_set_power_budget_mw(15);" in program
        assert "scalo_load_tdma(" in program

    def test_every_pe_gets_a_divider(self, materialised):
        program = emit_config_program(materialised)
        for pe_name in materialised.dividers:
            assert f"scalo_set_clock_divider(PE_{pe_name}," in program

    def test_flows_and_connections_emitted(self, materialised):
        program = emit_config_program(materialised)
        assert 'scalo_new_flow("seizure_detection"' in program
        assert "scalo_connect(flow0, PE_FFT, PE_BBF);" in program
        assert "COMM_ALL_ALL" in program

    def test_one_program_per_node(self, materialised):
        programs = emit_all_nodes(materialised)
        assert set(programs) == {0, 1, 2}
        assert "configure_node_1" in programs[1]

    def test_deterministic(self, materialised):
        assert emit_config_program(materialised) == emit_config_program(
            materialised
        )


class TestCLI:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig8a" in out and "table1" in out

    def test_table1(self, capsys):
        assert cli_main(["table1"]) == 0
        assert "XCOR" in capsys.readouterr().out

    def test_sec63(self, capsys):
        assert cli_main(["sec63"]) == 0
        assert "spikes_per_second_per_node" in capsys.readouterr().out

    def test_fig13_with_flags(self, capsys):
        assert cli_main(["fig13", "--nodes", "6"]) == 0
        assert "Low Power" in capsys.readouterr().out

    def test_unknown_target_lists_commands_and_exits_2(self, capsys):
        assert cli_main(["fig99"]) == 2
        err = capsys.readouterr().err
        assert "unknown target 'fig99'" in err
        assert "fig9a" in err and "list" in err
