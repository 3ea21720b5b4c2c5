"""Malformed CLI invocations must exit 2 with usage, never a traceback.

Every case runs ``python -m repro ...`` in a subprocess — the honest
user-facing path — and asserts the argparse/ScaloError contract: exit
code 2, something usage-shaped on stderr, and no stack trace.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _run(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True, text=True, timeout=300, env=env,
    )


BAD_INVOCATIONS = [
    pytest.param(("trace", "nosuchscenario"), id="trace-unknown-scenario"),
    pytest.param(("query", "--range", "a:b"), id="query-range-not-integers"),
    pytest.param(("query", "--range", "07"), id="query-range-no-colon"),
    pytest.param(("query", "--range", "3:1"), id="query-range-empty"),
    pytest.param(("query", "--nodes", "0"), id="query-zero-nodes"),
    pytest.param(("serve", "--qps", "abc"), id="serve-qps-not-a-number"),
    pytest.param(("serve", "--requests", "-5"), id="serve-negative-requests"),
    pytest.param(("serve", "--qps", "-1"), id="serve-negative-qps"),
    pytest.param(("serve", "--queue", "0"), id="serve-zero-queue"),
    pytest.param(("serve", "--seed", "x"), id="serve-seed-not-an-int"),
    pytest.param(("serve", "--deadline-ms", "0"), id="serve-zero-deadline"),
    pytest.param(("serve", "--deadline-ms", "-10"),
                 id="serve-negative-deadline"),
    pytest.param(("serve", "--deadline-ms", "abc"),
                 id="serve-deadline-not-a-number"),
    pytest.param(("serve", "--qps", "nan"), id="serve-nan-qps"),
    pytest.param(("serve", "--deadline-ms", "nan"), id="serve-nan-deadline"),
    pytest.param(("fig8a", "--power", "nan"), id="fig8a-nan-power"),
    pytest.param(("fabric", "--qps", "inf"), id="fabric-infinite-qps"),
    pytest.param(("table1", "--power", "3"), id="table1-unread-power-flag"),
    pytest.param(("fig9a", "--nodes", "64"), id="fig9a-unread-nodes-flag"),
    pytest.param(("serve", "--fault-plan", "apocalypse"),
                 id="serve-unknown-fault-plan"),
    pytest.param(("chaos", "--seed", "x"), id="chaos-seed-not-an-int"),
    pytest.param(("health", "nosuchstorm"), id="health-unknown-storm"),
    pytest.param(("health", "--seed", "x"), id="health-seed-not-an-int"),
    pytest.param(("health", "mild", "--health-report",
                  "/nonexistent/dir/h.json"),
                 id="health-report-missing-parent"),
    pytest.param(("serve", "--health-report", "/nonexistent/dir/h.json"),
                 id="serve-health-report-missing-parent"),
    pytest.param(("chaos", "--health-report", "reports/"),
                 id="chaos-health-report-trailing-slash"),
    pytest.param(("recover", "--seed", "x"), id="recover-seed-not-an-int"),
    pytest.param(("fabric", "--tenants", "0"), id="fabric-zero-tenants"),
    pytest.param(("fabric", "--tenants", "-3"),
                 id="fabric-negative-tenants"),
    pytest.param(("fabric", "--fleets", "0"), id="fabric-zero-fleets"),
    pytest.param(("fabric", "--qps", "abc"), id="fabric-qps-not-a-number"),
    pytest.param(("fabric", "--qps", "0"), id="fabric-zero-qps"),
    pytest.param(("fabric", "--csv", "/nonexistent/dir/m.csv"),
                 id="fabric-csv-missing-parent"),
    pytest.param(("serve", "--csv", "/nonexistent/dir/m.csv"),
                 id="serve-csv-missing-parent"),
    pytest.param(("trace", "--export", "traces/"),
                 id="trace-export-trailing-slash"),
    pytest.param(("trace", "seizure", "--csv", SRC),
                 id="trace-csv-existing-directory"),
    pytest.param(("trace", "seizure", "--export", SRC),
                 id="trace-export-existing-directory"),
    pytest.param(("serve", "--health-report", SRC),
                 id="serve-health-report-existing-directory"),
    pytest.param(("nosuchtarget",), id="unknown-target"),
]


@pytest.mark.parametrize("argv", BAD_INVOCATIONS)
def test_malformed_args_exit_2_without_traceback(argv):
    proc = _run(*argv)
    assert proc.returncode == 2, (proc.stdout, proc.stderr)
    assert "Traceback" not in proc.stderr
    assert "Traceback" not in proc.stdout
    # argparse prints usage; the ScaloError path prints error + usage;
    # the unknown-target path lists the available commands
    assert ("usage:" in proc.stderr) or ("available commands" in proc.stderr)


def test_good_invocation_still_exits_0():
    proc = _run("list")
    assert proc.returncode == 0
    assert "serve" in proc.stdout.split()
    assert "fabric" in proc.stdout.split()


def test_subcommand_help_shows_only_its_options():
    proc = _run("fabric", "--help")
    assert proc.returncode == 0
    assert "--tenants" in proc.stdout
    assert "--fault-plan" not in proc.stdout  # serve's flags stay on serve
    proc = _run("serve", "--help")
    assert proc.returncode == 0
    assert "--fault-plan" in proc.stdout
    assert "--tenants" not in proc.stdout


def test_figure_help_lists_only_the_flags_its_handler_reads():
    proc = _run("fig9a", "--help")
    assert proc.returncode == 0
    assert "--nodes" not in proc.stdout
    assert "--power" not in proc.stdout
    proc = _run("fig8a", "--help")
    assert proc.returncode == 0
    assert "--nodes" in proc.stdout
    assert "--power" in proc.stdout
    assert "--reps" not in proc.stdout
    proc = _run("all", "--help")
    assert proc.returncode == 0
    for flag in ("--nodes", "--power", "--pairs", "--packets", "--reps"):
        assert flag in proc.stdout


def test_fabric_happy_path(tmp_path):
    csv = tmp_path / "fabric-metrics.csv"
    report = tmp_path / "fabric-health.json"
    proc = _run(
        "fabric", "--tenants", "3", "--fleets", "2", "--nodes", "2",
        "--requests", "3", "--csv", str(csv), "--health-report", str(report),
    )
    assert proc.returncode == 0, (proc.stdout, proc.stderr)
    assert "fleet fabric" in proc.stdout
    assert "population q1" in proc.stdout
    assert "fabric.t00.submitted" in csv.read_text()
    import json

    doc = json.loads(report.read_text())
    assert any(s["slo"].startswith("fabric-t00") for s in doc["slos"])
