"""One benchmark child: set up a workload, then time its sessions.

``run.py`` starts one child at a time, single-threaded.  The child
imports the simulator, runs one untimed warm-up session, and then runs
the run's sessions (:func:`workloads.session_seeds`) back to back: a
closed loop, one session in flight.  Each session's inputs are built
before its timer starts; its digest is computed after the timer stops
and compared with the committed golden digest of its seed.

With ``--trace 1`` the first half of the run's sessions each run twice,
untraced and under the layer tracer, in alternating order, so a traced
run takes about as long as an untraced one; both digests must match.
The tracer's totals cover the traced runs only.  With ``--trace 0``, up to
:data:`RECHECK` sessions that have no golden digest run again under the
tracer after the timed loop, and their digests must match too.

The host is shared, and its speed changes by tens of percent from one
second to the next.  So the child times a fixed reference kernel
(:func:`reference_kernel`) right before and right after every session,
and twice right after set-up.  The mean of each pair over
:data:`REFERENCE_S` is that span's ``slowdown``, by which ``run.py``
divides its host time.
The kernel mixes interpreter work with the numpy bit unpacking the ECC
path does, 40:60 by time; that blend followed the simulator's own
slowdown most closely on all four workloads.

The last line of standard output is one JSON object with the raw
per-session records; ``run.py`` turns them into metrics.
"""

import time

# set-up time runs from here, so it includes every import below
START = time.perf_counter()

import argparse
import json
import platform
import resource
import sys
import traceback
import zlib

import numpy
import scipy

import layer_tracer
import workloads

#: seconds :func:`reference_kernel` takes on the unloaded host the
#: baseline in README.md was measured on (2-vCPU Xeon VM, Python 3.11)
REFERENCE_S = 0.0055
#: sessions without a golden digest re-run per untraced run; a bound,
#: so that a seed past the golden ones costs a run at most a tenth more
RECHECK = 4
_PAGES = [numpy.random.default_rng(0).bytes(4096) for _ in range(16)]


def reference_kernel() -> float:
    """Seconds a fixed mix of interpreter and numpy work takes right now."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(12000):
        key = (i * 7919) & 1023
        acc = (acc * 31 + table.get(key, i)) & 0xFFFFFFFF
        table[key] = acc
    for page in _PAGES:
        bits = numpy.unpackbits(numpy.frombuffer(page, dtype=numpy.uint8))
        acc ^= int(numpy.bitwise_xor.reduce(numpy.flatnonzero(bits) + 1))
        acc ^= zlib.crc32(page)
    return time.perf_counter() - start


def slowdown(before: float) -> float:
    """The host's slowdown over a span that started after ``before``."""
    return (before + reference_kernel()) / 2 / REFERENCE_S


def run_session(workload, seed: int, expected: list[str],
                tracer=None) -> dict:
    """Run one session; returns its record (``ok`` False on any failure).

    ``golden`` says whether the digest was checked against ``expected``.
    """
    record = {"seed": seed, "seconds": 0.0, "items": 0, "ok": False,
              "golden": seed < len(expected)}
    try:
        inputs = workload.prepare(seed)
        if tracer is not None:
            tracer.install()
        try:
            before = reference_kernel()
            start = time.perf_counter()
            outputs = workload.run(inputs)
            record["seconds"] = time.perf_counter() - start
            record["slowdown"] = slowdown(before)
        finally:
            if tracer is not None:
                tracer.uninstall()
        items, summary = workload.summarize(outputs)
        record["items"] = items
        record["digest"] = workloads.digest(summary)
    except Exception:  # a failed session is counted, the run goes on
        traceback.print_exc(file=sys.stderr)
        record["error"] = traceback.format_exc(limit=1).strip().splitlines()[-1]
        return record
    record["ok"] = not record["golden"] or record["digest"] == expected[seed]
    if not record["ok"]:
        print(f"digest mismatch: {workload.name} session {seed}",
              file=sys.stderr)
    return record


def same_digest(workload, plain: dict, under: dict) -> bool:
    """Whether an untraced and a traced run of a session agree."""
    if plain.get("digest") == under.get("digest"):
        return True
    print(f"traced digest differs: {workload.name} session {plain['seed']}",
          file=sys.stderr)
    return False


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload = workloads.WORKLOADS[args.workload]
    expected = workloads.load_expected().get(workload.name, [])
    warmup = run_session(workload, workloads.WARMUP_SEED, expected)
    out = {
        "setup_s": time.perf_counter() - START,
        # set-up has no kernel before it; two right after it stand in
        "setup_slowdown": slowdown(reference_kernel()),
        "warmup": warmup,
    }
    if not args.setup_only:
        tracer = layer_tracer.LayerTracer(layer_tracer.ENTRY_POINTS)
        seeds = workloads.session_seeds(workload, args.seed, args.seconds)
        if args.trace:
            seeds = seeds[: len(seeds) // 2]
        sessions, traced = [], []
        for index, seed in enumerate(seeds):
            if not args.trace:
                sessions.append(run_session(workload, seed, expected))
                continue
            # alternate which run goes first so warm caches favour neither
            if index % 2:
                under = run_session(workload, seed, expected, tracer)
                plain = run_session(workload, seed, expected)
            else:
                plain = run_session(workload, seed, expected)
                under = run_session(workload, seed, expected, tracer)
            under["ok"] &= same_digest(workload, plain, under)
            sessions.append(plain)
            traced.append(under)
        if not args.trace:
            unchecked = [r for r in sessions if r["ok"] and not r["golden"]]
            for plain in unchecked[:RECHECK]:
                under = run_session(workload, plain["seed"], expected, tracer)
                plain["ok"] = same_digest(workload, plain, under)
        out["sessions"] = sessions
        if args.trace:
            out["traced"] = traced
            out["tracer"] = {
                "self_s": tracer.self_s,
                "calls": tracer.calls,
                "site_s": tracer.site_s,
                "site_self_s": tracer.site_self_s,
                "site_calls": tracer.site_calls,
                "counts": tracer.counts,
                "covered_s": tracer.covered_s,
            }
    out["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    )
    out["versions"] = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    print(json.dumps(out))


if __name__ == "__main__":
    main()
