"""Fig. 12: packet errors and DTW decision flips vs network BER.

Paper reference: signal packets (longer) fail more often than hash
packets; even so, corrupted signals almost never flip the DTW similarity
decision; at the radio's design point (1e-5) under 1 % of hash packets
fail and there are no DTW failures.
"""

from conftest import run_once

from repro.eval.network_errors import BER_POINTS, fig12


def test_fig12_network_errors(benchmark, report):
    results = run_once(benchmark, fig12, n_packets=600)

    lines = [f"{'BER':>8s}{'hash err %':>12s}{'signal err %':>14s}"
             f"{'DTW fail %':>12s}"]
    for ber in BER_POINTS:
        r = results[ber]
        lines.append(
            f"{ber:>8.0e}{r.hash_packet_error_pct:12.2f}"
            f"{r.signal_packet_error_pct:14.2f}{r.dtw_failure_pct:12.2f}"
        )
    lines.append("(design point: BER 1e-5)")
    report("Fig. 12: network error impact", lines)

    design = results[1e-5]
    assert design.hash_packet_error_pct < 3.0
    assert design.dtw_failure_pct == 0.0
    worst = results[1e-4]
    assert worst.signal_packet_error_pct > worst.hash_packet_error_pct
    assert worst.dtw_failure_pct < 5.0  # DTW resilience
