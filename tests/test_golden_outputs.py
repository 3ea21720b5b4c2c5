"""Golden stdout and export digests for every CLI target.

Each figure, table and scenario target runs in process through
:func:`repro.__main__.main`, and the SHA-256 of what it prints is
compared with ``tests/golden/cli.json``.  Every printed value is
fixed-precision, so the digests are platform-stable; a change that
moves any figure, table, serving report or telemetry summary fails
here.  The telemetry scenarios also write every file they accept
(``--csv`` metrics, ``--export`` Chrome trace, ``--health-report``);
the SHA-256 of each file's bytes is compared with
``tests/golden/exports.json``, so the registry, the spans and the
health verdicts are pinned byte for byte, not only their printed
summaries.  After an intended output change, regenerate both files
with::

    PYTHONPATH=src python tests/update_golden.py

and review its diff.  The scheduler targets are also run as ``python
-m repro`` under one and two OpenMP threads, so a BLAS or solver result
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
EXPORTS_GOLDEN_PATH = GOLDEN_PATH.with_name("exports.json")
SRC = str(Path(__file__).resolve().parent.parent / "src")

#: Command lines whose stdout is pinned, fast ones first.
TARGETS: tuple[tuple[str, ...], ...] = (
    ("fig8a",), ("fig8b",), ("fig8c",), ("fig9a",), ("fig9b",),
    ("fig10",), ("fig13",), ("fig15",), ("sec62",), ("sec63",),
    ("table1",), ("table3",),
    ("query", "--seed", "0"),
    ("serve", "--seed", "0"),
    ("chaos", "--seed", "0"),
    ("chaos", "moderate", "--seed", "0"),
    ("chaos", "partition", "--seed", "0"),
    ("fabric", "--seed", "0"),
    ("trace", "seizure", "--seed", "0"),
    ("trace", "queries", "--seed", "0"),
    ("trace", "fig9a", "--seed", "0"),
    ("trace", "recover", "--seed", "0"),
    ("trace", "serve", "--seed", "0"),
    ("resilience",),
    ("fig11",), ("fig12",), ("fig14",),
)


#: Command lines whose written files are pinned, with the file flags
#: pinned for each.
EXPORTS: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...] = (
    (("serve", "--seed", "0"), ("--csv", "--health-report")),
    (("chaos", "--seed", "0"), ("--export", "--csv", "--health-report")),
    (("chaos", "moderate", "--seed", "0"), ("--health-report",)),
    (("chaos", "partition", "--seed", "0"), ("--csv", "--health-report")),
    (("fabric", "--seed", "0"), ("--csv", "--health-report")),
    *(
        (("trace", scenario, "--seed", "0"), ("--export", "--csv"))
        for scenario in ("seizure", "queries", "fig9a", "recover", "serve")
    ),
)


def target_key(argv: tuple[str, ...]) -> str:
    return " ".join(argv)


def export_keys(argv: tuple[str, ...], flags: tuple[str, ...]) -> list[str]:
    return [f"{target_key(argv)} {flag}" for flag in flags]


def stdout_digest(argv: tuple[str, ...]) -> str:
    """SHA-256 of one target's stdout (raises if the target fails)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    if code != 0:
        raise RuntimeError(f"{target_key(argv)!r} exited with {code}")
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


def export_digests(
    argv: tuple[str, ...], flags: tuple[str, ...], directory: Path
) -> dict[str, str]:
    """SHA-256 of each file one target writes, keyed by target and flag
    (raises if the target fails)."""
    paths = [directory / f"out{flag.replace('-', '_')}" for flag in flags]
    args = list(argv)
    for flag, path in zip(flags, paths):
        args += [flag, str(path)]
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(args)
    if code != 0:
        raise RuntimeError(f"{target_key(argv)!r} exited with {code}")
    return {
        key: hashlib.sha256(path.read_bytes()).hexdigest()
        for key, path in zip(export_keys(argv, flags), paths)
    }


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def golden_exports() -> dict[str, str]:
    return json.loads(EXPORTS_GOLDEN_PATH.read_text())


def test_golden_file_covers_every_target(golden):
    assert sorted(golden) == sorted(target_key(t) for t in TARGETS)


@pytest.mark.parametrize("argv", TARGETS, ids=target_key)
def test_stdout_matches_golden(argv, golden):
    assert stdout_digest(argv) == golden[target_key(argv)]


def test_exports_golden_file_covers_every_export(golden_exports):
    assert sorted(golden_exports) == sorted(
        key for argv, flags in EXPORTS for key in export_keys(argv, flags)
    )


@pytest.mark.parametrize(
    "argv,flags", EXPORTS, ids=[target_key(argv) for argv, _ in EXPORTS]
)
def test_exports_match_golden(argv, flags, golden_exports, tmp_path):
    digests = export_digests(argv, flags, tmp_path)
    assert digests == {key: golden_exports[key] for key in digests}


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
