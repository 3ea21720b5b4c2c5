"""Every example script runs cleanly end to end and prints what it did.

Each script's stdout SHA-256 is pinned in ``tests/golden/examples.json``,
so a change that moves any number an example prints fails here.  After
an intended output change, regenerate the file with::

    PYTHONPATH=src python tests/update_golden.py

and review its diff.
"""

import hashlib
import json
import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"
SCRIPTS = sorted(EXAMPLES_DIR.glob("*.py"))
EXAMPLES_GOLDEN_PATH = (
    pathlib.Path(__file__).resolve().parent / "golden" / "examples.json"
)


def run_example(script: pathlib.Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=300,
    )


def example_digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode()).hexdigest()


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(EXAMPLES_GOLDEN_PATH.read_text())


def test_examples_exist():
    names = {s.name for s in SCRIPTS}
    assert "quickstart.py" in names
    assert len(SCRIPTS) >= 3  # the deliverable floor; we ship seven


def test_golden_file_covers_every_example(golden):
    assert sorted(golden) == [s.name for s in SCRIPTS]


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda s: s.name)
def test_example_runs(script, golden):
    result = run_example(script)
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip(), "examples must narrate what they did"
    assert example_digest(result.stdout) == golden[script.name], (
        f"{script.name} prints different output; if intended, regenerate "
        "with tests/update_golden.py"
    )
