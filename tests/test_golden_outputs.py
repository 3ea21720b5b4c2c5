"""Golden stdout digests for every CLI target.

Each figure, table and scenario target runs in process through
:func:`repro.__main__.main`, and the SHA-256 of what it prints is
compared with ``tests/golden/cli.json``.  Every printed value is
fixed-precision, so the digests are platform-stable; a change that
moves any figure, table, serving report or telemetry summary fails
here.  After an intended output change, regenerate the file with::

    PYTHONPATH=src python tests/update_golden.py

and review its diff.  fig12 is ``slow`` (run it
with ``-m slow``).  fig15a and fig15b share fig15's handler, so fig15
is pinned once.  The scheduler targets are also run as ``python -m
repro`` under one and two OpenMP threads, so a BLAS or solver result
that depends on the thread count fails here too.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import main

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "cli.json"
SRC = str(Path(__file__).resolve().parent.parent / "src")

#: Command lines whose stdout is pinned, fast ones first.
TARGETS: tuple[tuple[str, ...], ...] = (
    ("fig8a",), ("fig8b",), ("fig8c",), ("fig9a",), ("fig9b",),
    ("fig10",), ("fig13",), ("fig15",), ("sec62",), ("sec63",),
    ("table1",), ("table3",),
    ("query", "--seed", "0"),
    ("serve", "--seed", "0"),
    ("chaos", "--seed", "0"),
    ("chaos", "partition", "--seed", "0"),
    ("fabric", "--seed", "0"),
    ("trace", "seizure", "--seed", "0"),
    ("resilience",),
    ("fig11",), ("fig12",), ("fig14",),
)

#: Targets that take seconds each; deselected unless ``-m slow``.
SLOW = frozenset({"fig12"})


def target_key(argv: tuple[str, ...]) -> str:
    return " ".join(argv)


def stdout_digest(argv: tuple[str, ...]) -> str:
    """SHA-256 of one target's stdout (raises if the target fails)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    if code != 0:
        raise RuntimeError(f"{target_key(argv)!r} exited with {code}")
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_file_covers_every_target(golden):
    assert sorted(golden) == sorted(target_key(t) for t in TARGETS)


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(t, marks=pytest.mark.slow) if t[0] in SLOW else t
        for t in TARGETS
    ],
    ids=target_key,
)
def test_stdout_matches_golden(argv, golden):
    assert stdout_digest(argv) == golden[target_key(argv)]


@pytest.mark.parametrize("threads", ("1", "2"))
@pytest.mark.parametrize("target", ("fig8b", "fig9a"))
def test_stdout_is_thread_count_stable(target, threads, golden):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["OMP_NUM_THREADS"] = threads
    proc = subprocess.run(
        [sys.executable, "-m", "repro", target],
        capture_output=True, timeout=300, env=env,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == golden[target]
