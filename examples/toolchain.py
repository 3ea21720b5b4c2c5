"""The full scheduling toolchain (paper §3.5/3.7), end to end.

Query text -> dataflow DAG -> ILP schedule -> materialised clock/TDMA
settings -> emitted C configuration program -> parsed and applied by the
on-node runtime loader.  Every arrow below runs for real.

Run:  python examples/toolchain.py
"""

from repro.core.config_loader import load_config_program
from repro.lang.compiler import compile_text
from repro.scheduler.codegen import emit_config_program
from repro.scheduler.ilp import Flow, SchedulerProblem
from repro.scheduler.model import hash_similarity_task, seizure_detection_task
from repro.scheduler.schedule import materialise


def main() -> None:
    # --- 1. the clinician's program ------------------------------------------
    query = "var detect = stream.window(wsize=4ms).fft().bbf().svm()"
    compiled = compile_text(query)
    print(f"query: {query}")
    print(f"  -> dataflow operators {[o.name for o in compiled.dataflow.operators]}")
    print(f"  -> PE chain {compiled.pe_names}\n")

    # --- 2. the ILP maps flows onto 4 implants --------------------------------
    problem = SchedulerProblem(
        n_nodes=4,
        flows=[
            Flow(seizure_detection_task(), weight=3.0, electrode_cap=96),
            Flow(hash_similarity_task("all_all", net_budget_ms=1.0),
                 weight=1.0, electrode_cap=96),
        ],
        power_budget_mw=15.0,
    )
    schedule = problem.solve()
    print("ILP schedule (4 implants, 15 mW):")
    for allocation in schedule.allocations:
        print(f"  {allocation.flow.task.name:26s}"
              f"{allocation.electrodes_per_node:6.1f} electrodes/node"
              f"{allocation.power_mw_per_node:7.2f} mW dyn")
    print(f"  node power {schedule.node_power_mw:.2f} mW, network "
          f"utilisation {schedule.network_utilisation:.1%}\n")

    # --- 3. materialise: clock dividers + TDMA frame --------------------------
    materialised = materialise(schedule)
    slow = {k: v for k, v in sorted(materialised.dividers.items(),
                                    key=lambda kv: -kv[1])[:4]}
    print(f"clock dividers (slowest four): {slow}")
    print(f"TDMA frame: {materialised.tdma_frame.slot_owners} "
          f"({materialised.tdma_frame.frame_ms:.2f} ms)\n")

    # --- 4. emit the per-node configuration program ----------------------------
    program = emit_config_program(materialised, node_id=0)
    head = "\n".join(program.splitlines()[:14])
    print(f"emitted configuration program (head):\n{head}\n  ...\n")

    # --- 5. the on-node runtime loads it back ----------------------------------
    loaded = load_config_program(program)
    assert loaded.dividers == materialised.dividers
    assert loaded.tdma_frame == materialised.tdma_frame.slot_owners
    print("runtime loader applied the program:")
    print(f"  {len(loaded.fabric.pes)} PEs configured, "
          f"{len(loaded.flows)} flows wired, dividers verified equal")


if __name__ == "__main__":
    main()
