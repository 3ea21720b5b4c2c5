"""Regenerate the golden session digests in ``expected/digests.json``.

Runs session seeds ``0 .. workloads.GOLDEN_SEEDS-1`` of every workload,
single-threaded, and records one SHA-256 per session (about three
minutes).  Run it only when a change is *meant* to alter simulator
output, and review the diff it leaves: it shows which workloads changed::

    python3 bench/update_expected.py
"""

import json
import os
import sys

from run import ROOT, SINGLE_THREAD, WORKLOADS

os.environ.update(SINGLE_THREAD)  # before numpy starts its thread pools
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs the environment above)


def main() -> None:
    digests: dict[str, list[str]] = {}
    for name in WORKLOADS:
        workload = workloads.WORKLOADS[name]
        digests[name] = []
        for seed in range(workloads.GOLDEN_SEEDS):
            outputs = workload.run(workload.prepare(seed))
            digests[name].append(workloads.digest(workload.summarize(outputs)[1]))
        print(f"{name}: {workloads.GOLDEN_SEEDS} sessions", flush=True)
    workloads.EXPECTED_PATH.parent.mkdir(exist_ok=True)
    workloads.EXPECTED_PATH.write_text(json.dumps(digests, indent=1) + "\n")


if __name__ == "__main__":
    main()
