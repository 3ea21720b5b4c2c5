"""Fig. 14: LSH parameter flexibility (window size x n-gram size).

Paper reference: each measure has a best (window, n-gram) setting, but
many settings sit within 90 % of the best true-positive rate — enough
overlap that one hash PE configuration serves several measures.
"""

from conftest import run_once

from repro.eval.hash_params import fig14, shared_configs


def test_fig14_hash_params(benchmark, report):
    results = run_once(benchmark, fig14, n_pairs=240)

    lines = []
    for name, result in results.items():
        lines.append(
            f"{name:>10s}: best (window={result.best[0]}, "
            f"ngram={result.best[1]}) tpr={result.best_tpr:.2f}; "
            f"{len(result.near_best)} configs within 90%"
        )
    shared = shared_configs(results)
    lines.append(f"configs near-best for every measure: {shared[:12]}")
    report("Fig. 14: hash parameter flexibility", lines)

    for result in results.values():
        assert result.best_tpr > 0.5
        assert len(result.near_best) >= 2
    # the reuse argument: at least one configuration serves every measure
    assert shared
