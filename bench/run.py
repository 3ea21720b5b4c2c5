"""Layer-attributed wall-clock benchmark of the SCALO simulator.

Measures the simulator's host time on four seeded workloads (``ingest``,
``serve``, ``chaos``, ``sweep``; see ``bench/README.md``) without
changing anything under ``src/``.  One workload in one mode::

    python3 bench/run.py --workload chaos --seed 3 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones.  Without ``--workload`` every workload runs ``--repeat`` untraced
times and once traced, and ``--out`` saves everything for
``bench/compare.py``::

    python3 bench/run.py --seed 0 --repeat 10 --out base.json

Each run starts fresh single-threaded child processes (``child.py``),
one at a time.  A run times a fixed list of sessions, seeds ``S, S+1,
...``: at least 40, and as many as fill ``--seconds`` on the baseline
host.  Set-up time is the median over :data:`SETUPS` children.
Every host time is divided by the host's ``slowdown`` measured around
it (see ``child.py``), so the numbers read as seconds on the unloaded
baseline host, and a busy neighbour on a shared host moves them little.
Session digests are checked against ``expected/`` where a golden digest
exists, and otherwise against a traced run of the same session (all of
them with ``--trace 1``, a few with ``--trace 0``; see ``child.py``); a
session that raises or mismatches counts as failed.  The
last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layer_tracer import LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("ingest", "serve", "chaos", "sweep")
#: measured seconds per run unless ``--seconds`` says otherwise
DEFAULT_SECONDS = 10
#: children whose set-up times give the ``setup_s`` median
SETUPS = 3
#: wall-clock cap on one workload run, all its children included
RUN_LIMIT_S = 170
#: the entry points that hash windows; the hashing layer's other ones
#: (``matches_many``, ``CollisionChecker.check``) match, and are left out
#: of ``hashing.us_per_window``
HASH_SITES = tuple(
    f"repro.hashing.lsh.LSHFamily.{name}"
    for name in ("hash_window", "hash_windows", "hash_channels")
)
#: BLAS/OpenMP pools pinned to one thread in every child
SINGLE_THREAD = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class BenchError(RuntimeError):
    """A child failed to produce a result."""


def run_child(workload: str, seed: int, seconds: float, trace: int,
              deadline: float, setup_only: bool = False) -> dict:
    """Run one child to completion and return its JSON record."""
    cmd = [
        sys.executable, str(BENCH / "child.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p),
               **SINGLE_THREAD)
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} child exceeded the run limit") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} child exited with {proc.returncode}")
    return json.loads(lines[-1])


# -- metrics ---------------------------------------------------------------------


def _completed(records: list[dict]) -> list[dict]:
    """Sessions that ran to the end (their digest may still mismatch)."""
    return [r for r in records if "digest" in r]


def _p75(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def end_to_end(main: dict, setups: list[dict]) -> dict[str, tuple[float, str]]:
    """The untraced run's user-visible metrics."""
    done = _completed(main["sessions"])
    if not done:
        raise BenchError("no session completed")
    times = [r["seconds"] / r["slowdown"] for r in done]
    total = sum(times)
    return {
        "items_per_s": (sum(r["items"] for r in done) / total, "1/s"),
        "wall_s": (total, "s"),
        "session_s_p50": (statistics.median(times), "s"),
        "session_s_p75": (_p75(times), "s"),
        "setup_s": (
            statistics.median(
                c["setup_s"] / c["setup_slowdown"] for c in setups
            ),
            "s",
        ),
        "peak_rss_mb": (main["peak_rss_mb"], "MB"),
    }


def _ratio(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return scale * numerator / denominator if denominator else 0.0


def per_layer(main: dict) -> dict[str, tuple[float, str]]:
    """The traced run's per-layer metrics, per traced session."""
    pairs = [
        (plain, under)
        for plain, under in zip(main["sessions"], main["traced"])
        if "digest" in plain and "digest" in under
    ]
    if not pairs:
        raise BenchError("no traced session completed")
    n = len(pairs)
    traced = sum(under["seconds"] for _, under in pairs)
    # the tracer's host times are divided by the traced sessions'
    # time-weighted slowdown; shares and counts need no correction
    scaled = [
        (plain["seconds"] / plain["slowdown"],
         under["seconds"] / under["slowdown"])
        for plain, under in pairs
    ]
    untraced_s = sum(plain for plain, _ in scaled)
    traced_s = sum(under for _, under in scaled)
    slow = traced / traced_s
    tracer = main["tracer"]
    calls, counts, site_calls = (
        tracer["calls"], tracer["counts"], tracer["site_calls"]
    )
    self_s = {layer: t / slow for layer, t in tracer["self_s"].items()}
    site_s = {site: t / slow for site, t in tracer["site_s"].items()}
    hash_s = sum(
        tracer["site_self_s"].get(site, 0.0) / slow for site in HASH_SITES
    )

    def count(name: str) -> float:
        return counts.get(name, 0.0)

    def per_call(site: str, scale: float) -> float:
        return _ratio(site_s.get(site, 0.0), site_calls.get(site, 0), scale)

    metrics: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (self_s.get(layer, 0.0) / n, "s/session")
        metrics[f"{layer}.share"] = (
            _ratio(tracer["self_s"].get(layer, 0.0), traced), "fraction"
        )
        metrics[f"{layer}.calls"] = (calls.get(layer, 0) / n, "1/session")
    metrics["driver.self_s"] = (
        (traced - tracer["covered_s"]) / slow / n, "s/session"
    )
    for name in (
        "storage.page_reads", "storage.page_writes", "storage.sig_lookups",
        "recovery.ecc.decodes", "recovery.ecc.encodes",
        "recovery.ecc.corrected", "recovery.ecc.uncorrectable",
        "hashing.windows_hashed", "network.sends", "network.arq_sends",
        "scheduler.solves", "apps.queries", "serving.submits",
        "serving.waves", "faults.rounds", "telemetry.health_samples",
    ):
        metrics[name] = (count(name) / n, "1/session")
    metrics["storage.sig_cache_hit_ratio"] = (
        _ratio(count("storage.sig_hits"), count("storage.sig_lookups")),
        "fraction",
    )
    metrics["recovery.ecc.us_per_decode"] = (
        per_call("repro.recovery.ecc.decode_page", 1e6), "us"
    )
    metrics["hashing.us_per_window"] = (
        _ratio(hash_s, count("hashing.windows_hashed"), 1e6), "us"
    )
    metrics["scheduler.ms_per_solve"] = (
        per_call("repro.scheduler.ilp.SchedulerProblem.solve", 1e3), "ms"
    )
    metrics["apps.ms_per_query"] = (
        per_call("repro.apps.queries.QueryEngine.run", 1e3), "ms"
    )
    metrics["trace.coverage"] = (
        _ratio(tracer["covered_s"], traced), "fraction"
    )
    metrics["trace.overhead_pct"] = (
        _ratio(traced_s - untraced_s, untraced_s, 100.0), "%"
    )
    return metrics


# -- one workload run --------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float,
                 trace: int) -> tuple[dict, dict]:
    """One run of one workload and the child's library versions.

    The run is ``{"correct", "attempted", "failed", "metrics"}`` plus
    the main child's ``slowdown``; every session run counts as attempted,
    warm-ups included.
    """
    deadline = time.monotonic() + RUN_LIMIT_S
    if trace:
        main = run_child(workload, seed, seconds, 1, deadline)
        records = [main["warmup"], *main["sessions"], *main["traced"]]
        metrics = per_layer(main)
    else:
        setups = [
            run_child(workload, seed, seconds, 0, deadline, setup_only=True)
            for _ in range(SETUPS - 1)
        ]
        main = run_child(workload, seed, seconds, 0, deadline)
        records = [s["warmup"] for s in setups]
        records += [main["warmup"], *main["sessions"]]
        metrics = end_to_end(main, [*setups, main])
    failed = sum(not r["ok"] for r in records)
    return {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
        "slowdown": statistics.median(
            r["slowdown"] for r in _completed(main["sessions"])
        ),
    }, main["versions"]


# -- environment --------------------------------------------------------------------


def git_revision() -> str:
    """The checked-out commit, read from ``.git`` (``unknown`` outside git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head.removeprefix("ref: ")
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int, seconds: float, versions: dict) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        **versions,
        "git_revision": git_revision(),
        "seed": seed,
        "seconds": seconds,
    }


def _print_metrics(prefix: str, metrics: dict) -> None:
    for name, metric in metrics.items():
        print(f"{prefix}{name:36s} {metric['value']:14.6g} {metric['unit']}")


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics, 1: per-layer metrics "
                             "(default without --workload: both)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="untraced runs per workload without --workload")
    parser.add_argument("--out", type=Path,
                        help="write every run's result as JSON")
    args = parser.parse_args()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no simulator source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0 or args.repeat < 1:
        parser.error("--seconds and --repeat must be positive")
    if args.seed < 0:
        parser.error("--seed must not be negative")

    if args.workload is not None:
        plan = {args.workload: [args.trace or 0]}
    else:
        modes = [0] * args.repeat + [1] if args.trace is None else [args.trace]
        plan = {workload: modes for workload in WORKLOADS}

    results: dict[str, list[dict]] = {}
    try:
        for workload, modes in plan.items():
            results[workload] = []
            for trace in modes:
                run, versions = run_workload(
                    workload, args.seed, args.seconds, trace
                )
                results[workload].append(run)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    env = environment(args.seed, args.seconds, versions)
    summary: dict = {"correct": True, "attempted": 0, "failed": 0,
                     "metrics": {}}
    for workload, runs in results.items():
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for index, run in enumerate(runs):
            label = f"{workload}[{index}] " if len(plan) > 1 else ""
            _print_metrics(label, run["metrics"])
            print(f"{label}{'host slowdown':36s} {run['slowdown']:14.4f}")
            summary["correct"] &= run["correct"]
            summary["attempted"] += run["attempted"]
            summary["failed"] += run["failed"]
            for name, metric in run["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        # several runs of one workload are summarised by their median
        for name, series in values.items():
            key = name if len(plan) == 1 else f"{workload}.{name}"
            summary["metrics"][key] = {
                "value": statistics.median(series), "unit": units[name]
            }
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(
            {"env": env, "workloads": results}, indent=1
        ) + "\n")
    print(json.dumps({"env": env}))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
