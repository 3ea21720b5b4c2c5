"""Rewrite ``tests/golden/cli.json`` from the current code.

Usage::

    PYTHONPATH=src python tests/update_golden.py

Runs every target in :data:`test_golden_outputs.TARGETS` (the slow ones
included) and prints which digests changed; the file's diff is what a
reviewer checks.
"""

from __future__ import annotations

import json

from test_golden_outputs import GOLDEN_PATH, TARGETS, stdout_digest, target_key


def main() -> None:
    old = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
    new = {target_key(t): stdout_digest(t) for t in TARGETS}
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(new, indent=2, sort_keys=True) + "\n")
    for key, digest in new.items():
        if old.get(key) != digest:
            print(f"changed: {key}")
    print(f"wrote {len(new)} digests to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
