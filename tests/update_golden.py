"""Rewrite ``tests/golden/cli.json``, ``exports.json`` and ``examples.json``.

Usage::

    PYTHONPATH=src python tests/update_golden.py

Runs every target in :data:`test_golden_outputs.TARGETS`, writes every
file of :data:`test_golden_outputs.EXPORTS` into a temporary directory,
runs every script in :data:`test_examples.SCRIPTS`, and prints which
digests changed; the files' diffs are what a reviewer checks.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from test_examples import EXAMPLES_GOLDEN_PATH, SCRIPTS, example_digest, run_example
from test_golden_outputs import (
    EXPORTS,
    EXPORTS_GOLDEN_PATH,
    GOLDEN_PATH,
    TARGETS,
    export_digests,
    stdout_digest,
    target_key,
)


def example_stdout_digest(script: Path) -> str:
    """SHA-256 of one example's stdout (raises if the script fails)."""
    result = run_example(script)
    if result.returncode != 0:
        raise RuntimeError(f"{script.name} exited with {result.returncode}")
    return example_digest(result.stdout)


def rewrite(path: Path, new: dict[str, str]) -> None:
    old = json.loads(path.read_text()) if path.exists() else {}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(new, indent=2, sort_keys=True) + "\n")
    for key, digest in new.items():
        if old.get(key) != digest:
            print(f"changed: {key}")
    print(f"wrote {len(new)} digests to {path}")


def main() -> None:
    rewrite(GOLDEN_PATH, {target_key(t): stdout_digest(t) for t in TARGETS})
    exports: dict[str, str] = {}
    for argv, flags in EXPORTS:
        with tempfile.TemporaryDirectory() as directory:
            exports.update(export_digests(argv, flags, Path(directory)))
    rewrite(EXPORTS_GOLDEN_PATH, exports)
    rewrite(
        EXAMPLES_GOLDEN_PATH,
        {s.name: example_stdout_digest(s) for s in SCRIPTS},
    )


if __name__ == "__main__":
    main()
