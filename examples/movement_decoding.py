"""Movement-intent decoding: the three pipelines of paper Fig. 3b/6.

Trains and evaluates the decomposed SVM classifier (A), the centralised
Kalman filter (B), and the decomposed shallow network (C) on a synthetic
reaching session, and reports what each ships over the intra-SCALO
network per decision.

Run:  python examples/movement_decoding.py
"""

from repro.apps.movement import (
    MovementClassifierApp,
    MovementKalmanApp,
    MovementNNApp,
    generate_movement_session,
)
from repro.eval.application import mi_intents_per_second


def main() -> None:
    session = generate_movement_session(
        n_nodes=4, electrodes_per_node=12, n_steps=450, seed=1
    )
    train, test = session.split(0.6)
    print(f"session: {session.n_nodes} implants x "
          f"{session.electrodes_per_node} electrodes, "
          f"{session.n_steps} x 50 ms steps "
          f"({len(set(session.labels))} movement classes)")

    # --- pipeline A: decomposed linear SVM ----------------------------------
    classifier = MovementClassifierApp.train(train)
    print(f"\nA  (SVM):  {classifier.accuracy(test):.0%} class accuracy, "
          f"{classifier.wire_bytes_per_node} B/node/decision on the wire")

    # --- pipeline B: centralised Kalman filter ------------------------------
    kalman = MovementKalmanApp.train(train)
    print(f"B  (KF):   velocity correlation "
          f"{kalman.velocity_correlation(test):.2f}, "
          f"{kalman.wire_bytes_per_node} B/node/step "
          f"(4 B per electrode, centralised inversion of a "
          f"{kalman.model.n_obs}x{kalman.model.n_obs} matrix)")

    # --- pipeline C: decomposed shallow network -----------------------------
    network = MovementNNApp.train(train, n_hidden=32, epochs=150)
    print(f"C  (NN):   velocity correlation "
          f"{network.velocity_correlation(test):.2f}, "
          f"{network.wire_bytes_per_node} B/node/decision")

    # --- decision rates (paper Fig. 9b) --------------------------------------
    print("\nintents per second vs node count (Fig. 9b):")
    print(f"{'nodes':>8s}{'SVM':>10s}{'NN':>10s}{'KF':>10s}")
    for n in (2, 4, 8, 16):
        print(f"{n:>8d}"
              f"{mi_intents_per_second('svm', n):>10.1f}"
              f"{mi_intents_per_second('nn', n):>10.1f}"
              f"{mi_intents_per_second('kf', n):>10.1f}")
    print("(conventional decoders are pinned at 20/s by the 50 ms window)")


if __name__ == "__main__":
    main()
