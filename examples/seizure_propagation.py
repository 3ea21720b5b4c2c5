"""Seizure propagation, end to end (paper Figs. 3a/5, §6.3, Fig. 15).

Generates a multi-site recording with one propagating seizure, trains the
local detector, runs the distributed hash -> exact-comparison protocol,
and reports detection/confirmation timing — then repeats under hash
encoding errors to show the protocol's resilience.

Run:  python examples/seizure_propagation.py
"""

from repro.apps import SeizurePropagationSimulator
from repro.apps.seizure import train_detector_from_recording
from repro.apps.stimulation import Stimulator, stimulate_from_confirmations
from repro.datasets import generate_ieeg
from repro.eval.application import seizure_propagation_schedule
from repro.hashing import LSHFamily


def main() -> None:
    # --- data: 3 implants, one seizure spreading across all of them ---------
    recording = generate_ieeg(
        n_nodes=3, n_electrodes=6, duration_s=2.0, fs_hz=6000,
        n_seizures=1, seizure_duration_s=0.5,
        propagation_delay_ms=(20.0, 80.0), seed=7,
    )
    seizure = recording.seizures[0]
    window_ms = 120 / recording.fs_hz * 1e3
    print(f"seizure onset at node {seizure.onset_node}, "
          f"sample {seizure.onset_sample}; arrivals:")
    for node, arrival in sorted(seizure.arrivals.items()):
        delay = (arrival - seizure.onset_sample) / recording.fs_hz * 1e3
        print(f"  node {node}: +{delay:.1f} ms")

    # --- the local detection stage -------------------------------------------
    detector = train_detector_from_recording(recording, seed=0)

    # --- the distributed protocol --------------------------------------------
    simulator = SeizurePropagationSimulator(
        recording, detector, LSHFamily.for_measure("dtw"),
        dtw_threshold=250.0,
    )
    result = simulator.run()
    print(f"\nclean run: {result.hash_broadcasts} hash broadcasts, "
          f"{result.signal_exchanges} signal exchanges, "
          f"{len(result.confirmations)} confirmed propagations, "
          f"{len(result.stimulations)} stimulation commands")
    event = result.confirmations[0]
    print(f"first confirmation: node {event.confirming_node} confirmed "
          f"node {event.source_node}'s seizure in window "
          f"{event.window_index} (t={event.window_index * window_ms:.0f} ms, "
          f"DTW cost {event.dtw_cost:.1f}, "
          f"{event.n_collisions} electrode collisions)")

    # --- close the loop: confirmed spread triggers safe stimulation ----------
    stimulators = {
        node: Stimulator(node, recording.n_electrodes)
        for node in range(recording.n_nodes)
    }
    executed = stimulate_from_confirmations(
        result.confirmations, stimulators, window_ms
    )
    print(f"stimulation: {len(executed)} trains executed "
          f"(refractory suppressed "
          f"{len(result.confirmations) - len(executed)}); "
          f"DAC energy {sum(s.energy_mj() for s in stimulators.values()):.2f} mJ")

    # --- resilience to hash encoding errors (Fig. 15a's knob) ---------------
    print("\nhash-encoding error sweep (first-confirmation window):")
    for rate in (0.0, 0.3, 0.6, 0.9):
        noisy = SeizurePropagationSimulator(
            recording, detector, LSHFamily.for_measure("dtw"),
            dtw_threshold=250.0, hash_error_rate=rate, seed=3,
        ).run()
        first = (
            min(e.window_index for e in noisy.confirmations)
            if noisy.confirmations else None
        )
        print(f"  error rate {rate:.1f}: "
              f"{len(noisy.confirmations)} confirmations, "
              f"first at window {first}")

    # --- what the ILP would schedule for this application --------------------
    schedule = seizure_propagation_schedule(n_nodes=11, weights=(1, 1, 1))
    print(f"\nILP schedule at 11 implants / 15 mW "
          f"(weighted {schedule.weighted_mbps():.0f} Mbps):")
    for allocation in schedule.allocations:
        print(f"  {allocation.flow.task.name:24s} "
              f"{allocation.electrodes_per_node:6.1f} electrodes/node  "
              f"{allocation.power_mw_per_node:5.2f} mW dyn")


if __name__ == "__main__":
    main()
