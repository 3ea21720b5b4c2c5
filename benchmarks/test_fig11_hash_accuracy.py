"""Fig. 11: hash-vs-exact comparison errors by distance from threshold.

Paper reference: total errors are small, concentrate close to the
decision threshold, taper off with distance, and are biased toward false
positives (which the exact comparison later resolves).
"""

from conftest import run_once

from repro.eval.hash_accuracy import fig11


def test_fig11_hash_accuracy(benchmark, report):
    results = run_once(benchmark, fig11, n_pairs=400)

    lines = []
    sample = next(iter(results.values()))
    centers = "".join(f"{c:>7.0f}" for c in sample.bin_centers_pct)
    lines.append(f"{'measure':>10s}{centers}   <- distance from threshold (%)")
    for name, result in results.items():
        bins = "".join(f"{e:7.1f}" for e in result.error_pct)
        lines.append(
            f"{name:>10s}{bins}   total={result.total_error_pct:.1f}% "
            f"fp_share={result.false_positive_share:.2f}"
        )
    report("Fig. 11: hash comparison errors (% of pairs per bin)", lines)

    for name, result in results.items():
        assert result.total_error_pct < 30.0, name
        near = result.error_pct[abs(result.bin_centers_pct) <= 25].sum()
        far = result.error_pct[abs(result.bin_centers_pct) >= 45].sum()
        assert near >= far, f"{name}: errors must concentrate near threshold"
