"""Quickstart: assemble a SCALO system and touch every layer once.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.api import build_system, run_query
from repro.hardware.catalog import get_pe
from repro.lang.compiler import compile_text
from repro.scheduler.ilp import Flow, SchedulerProblem
from repro.scheduler.model import hash_similarity_task, seizure_detection_task


def main() -> None:
    # --- 1. the hardware: look up a Table 1 PE ------------------------------
    xcor = get_pe("XCOR")
    print(f"XCOR PE: {xcor.max_freq_mhz} MHz, "
          f"{xcor.dyn_uw_per_electrode} uW/electrode, {xcor.area_kge} KGE")

    # --- 2. a four-implant distributed system -------------------------------
    system = build_system(n_nodes=4, electrodes_per_node=8)
    thermal = system.thermal_check()
    print(f"thermal check: {system.n_nodes} implants, worst rise "
          f"{thermal.worst_rise_c:.2f} C (safe={thermal.safe})")

    sync = system.synchronise_clocks()
    print(f"clock sync: {sync.rounds} round(s), worst offset "
          f"{sync.worst_offset_us:.2f} us")

    # --- 3. ingest one 4 ms window on every node and exchange hashes --------
    rng = np.random.default_rng(0)
    windows = rng.normal(size=(4, 8, 120)).cumsum(axis=2)
    # plant correlated activity: node 1 sees node 0's signal, lagged and
    # attenuated — the situation the hash check is built to spot
    windows[1, 0] = 0.85 * np.roll(windows[0, 0], 4)
    signatures = system.ingest(windows)
    system.broadcast_hashes(0, signatures[0])
    packet = system.drain_inbox(1)[0]
    received = system.unpack_hashes(packet)
    matches = system.nodes[1].check_remote_hashes(received)
    print(f"node 0 broadcast {len(received)} hashes; node 1 found "
          f"{len(matches)} collisions against its recent store")

    # --- 4. query the fleet's storage ---------------------------------------
    result = run_query(system, "q2", (0, 1), template=windows[0, 0])
    print(f"Q2 template query: {len(result.rows)} matching window(s), "
          f"coverage {result.coverage:.0%}")

    # --- 5. schedule an application with the ILP ----------------------------
    schedule = SchedulerProblem(
        n_nodes=4,
        flows=[
            Flow(seizure_detection_task(), electrode_cap=96),
            Flow(hash_similarity_task("all_all", net_budget_ms=1.0),
                 electrode_cap=96),
        ],
        power_budget_mw=15.0,
    ).solve()
    for allocation in schedule.allocations:
        print(f"flow {allocation.flow.task.name}: "
              f"{allocation.electrodes_per_node:.0f} electrodes/node, "
              f"{allocation.aggregate_mbps:.1f} Mbps aggregate")
    print(f"node power: {schedule.node_power_mw:.2f} mW of "
          f"{schedule.power_budget_mw} mW")

    # --- 6. compile a Trill-style query to a PE pipeline ---------------------
    compiled = compile_text(
        "var movements = stream.window(wsize=50ms).sbp().kf(params)"
        ".call_runtime()"
    )
    pipeline = compiled.build_pipeline()
    print(f"query '{compiled.chain.var_name}' lowers to PEs "
          f"{compiled.pe_names} (latency {pipeline.latency_ms:.2f} ms)")


if __name__ == "__main__":
    main()
