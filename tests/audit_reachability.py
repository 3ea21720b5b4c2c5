"""List the public code under ``src/repro`` that no real run enters.

Usage::

    PYTHONPATH=src python tests/audit_reachability.py

A dynamic companion to ``tests/test_src_reachability.py``, which matches
names statically.  Under :func:`sys.setprofile` it runs the roots: every
CLI target (the golden ones, with the ``--export``, ``--csv`` and
``--health-report`` flags where a target takes them, plus ``all``,
``list``, ``export`` and the ``mild`` and ``severe`` chaos storms),
every ``examples/*.py``, and one session of each ``bench/workloads.py``
workload.  Then it prints every public
module-level function and public method or property of a public class
under ``src/repro`` whose code object no root entered, each with the
reason :data:`KEEP` (or ``UNNAMED_ALLOWED`` of the static guard) keeps
it, and every stale :data:`KEEP` entry: one that is no longer defined,
or that a root now enters.  It exits 1 on a definition nothing keeps
and on a stale entry.  The run takes about half a minute; pytest does
not collect it.
"""

from __future__ import annotations

import ast
import contextlib
import io
import runpy
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "repro"
for path in (ROOT / "src", HERE, ROOT / "bench"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from test_golden_outputs import TARGETS  # noqa: E402
from test_src_reachability import UNNAMED_ALLOWED  # noqa: E402

_TWIN = (
    "scalar twin of a batch path: bench/layer_tracer.py ENTRY_POINTS wraps "
    "it, so it waits for the benchmark-only ROADMAP item 20 (item 23)"
)
_SNAPSHOT = (
    "determinism observable: the registry snapshot the determinism tests "
    "compare with =="
)
_NULL = "null-telemetry interface: the no-op twin of a Telemetry binding"
_HCOMP = (
    "Table 1 HCOMP/DCOMP PEs (§3.2): a step of hcomp_compress, which "
    "benchmarks/test_ablation_hcomp_vs_lz.py runs, or of its inverse"
)
_ISOLATION = "benchmarks/test_fabric.py: the noisy-neighbour isolation gate"

#: Public definitions no root enters, each with why it stays.  The list
#: only shrinks: an entry that is no longer defined, or that a root now
#: enters, is reported as stale.
KEEP: dict[str, str] = {
    # scalar twins
    "repro.storage.nvm.NVMDevice.read": _TWIN,
    "repro.storage.nvm.NVMDevice.program_page": _TWIN,
    "repro.storage.nvm.NVMDevice.rewrite_range": _TWIN,
    "repro.storage.nvm.NVMDevice.erase_block": _TWIN,
    "repro.storage.nvm.NVMDevice.n_blocks":
        "read by erase_block, a scalar twin (ROADMAP items 20 and 23)",
    "repro.storage.controller.StorageController.store_window": _TWIN,
    "repro.storage.controller.StorageController.read_window": _TWIN,
    "repro.hashing.lsh.LSHFamily.hash_channels": _TWIN,
    "repro.core.system.ScaloSystem.reschedule": _TWIN,
    # the paper
    "repro.compression.dictionary.dictionary_encode": _HCOMP,
    "repro.compression.dictionary.dictionary_decode": _HCOMP,
    "repro.compression.dictionary.frequency_dictionary": _HCOMP,
    "repro.compression.elias.encode_gamma": _HCOMP,
    "repro.compression.elias.decode_gamma": _HCOMP,
    "repro.compression.rle.rle_encode": _HCOMP,
    "repro.compression.rle.rle_decode": _HCOMP,
    "repro.compression.hash_codec.hcomp_compress":
        "Table 1 HCOMP PE (§3.2); benchmarks/test_ablation_hcomp_vs_lz.py",
    # benchmarks/
    "repro.eval.queries.data_sizes_mb": "benchmarks/test_fig10_queries.py",
    "repro.eval.queries.q2_hash_vs_dtw": "benchmarks/test_fig10_queries.py",
    "repro.eval.tables.table1_summary": "benchmarks/test_table1_pe_catalog.py",
    "repro.hardware.catalog.total_area_kge":
        "table1_summary reads it; benchmarks/test_table1_pe_catalog.py",
    "repro.storage.layout.read_cost_ms":
        "benchmarks/test_ablation_storage_layout.py",
    "repro.storage.layout.write_cost_ms":
        "benchmarks/test_ablation_storage_layout.py",
    "repro.storage.controller.StorageController.invalidate_signatures":
        "benchmarks/test_query_hotpath.py: the cold-cache scan",
    "repro.fabric.isolation.run_isolation_gate": _ISOLATION,
    "repro.fabric.isolation.choose_pair": _ISOLATION,
    "repro.fabric.isolation.IsolationResult.as_dict": _ISOLATION,
    "repro.fabric.isolation.IsolationResult.p99_degradation": _ISOLATION,
    "repro.fabric.isolation.IsolationResult.p99_ok": _ISOLATION,
    "repro.fabric.isolation.IsolationResult.passed": _ISOLATION,
    "repro.serving.admission.TokenBucket.retry_after_ms":
        "AdmissionController.admit's rate-limited shed; the isolation "
        "gate's 10x tenant is rate-limited",
    # telemetry
    "repro.telemetry.NullTelemetry.advance_us": _NULL,
    "repro.telemetry.NullTelemetry.instant": _NULL,
    "repro.telemetry.Telemetry.snapshot": _SNAPSHOT,
    "repro.telemetry.exporters.telemetry_json": _SNAPSHOT,
    "repro.telemetry.registry.MetricsRegistry.snapshot": _SNAPSHOT,
    "repro.telemetry.health.sketch.QuantileSketch.as_dict": _SNAPSHOT,
    "repro.telemetry.health.sketch.QuantileSketch.merge":
        "HealthEngine._metric_sketch merges a latency metric's label "
        "cells; no root's SLO metric has two",
    # recovery and torn-tail safety
    "repro.storage.controller.StorageController.checkpoint":
        "SCK2 recovery: _maybe_checkpoint calls it every "
        "CHECKPOINT_EVERY_RECORDS journal records",
    "repro.recovery.journal.WriteAheadJournal.discard_torn_tail":
        "torn-tail safety: recovery calls it when replay finds a torn tail",
    "repro.recovery.journal.WriteAheadJournal.snapshot":
        "torn-tail safety: the crash image recovery is tested from",
    "repro.recovery.journal.JournalImage.torn":
        "torn-tail safety: a crash cut mid-append",
}


def public_code() -> dict[str, tuple[Path, set[int]]]:
    """Qualified name -> (file, candidate first lines) of every public
    module-level function and public method or property of a public
    top-level class under ``src/repro``.  A decorated definition's code
    object starts at its ``def`` line or its first decorator's line,
    depending on the Python version, so both are candidates."""
    found: dict[str, tuple[Path, set[int]]] = {}
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC.parent).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                members = [(node.name, node)]
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                members = [
                    (f"{node.name}.{sub.name}", sub)
                    for sub in node.body
                    if isinstance(sub, ast.FunctionDef)
                    and not sub.name.startswith("_")
                ]
            else:
                continue
            for qualname, func in members:
                if func.name.startswith("_"):
                    continue
                lines = {func.lineno}
                lines.update(d.lineno for d in func.decorator_list)
                found[f"{module}.{qualname}"] = (path, lines)
    return found


def _cli_runs(out: Path) -> list[list[str]]:
    """Every CLI command line the probe runs, report paths under ``out``."""
    flags = {
        "trace": ["--export", str(out / "t.json"), "--csv", str(out / "t.csv")],
        "serve": ["--csv", str(out / "s.csv"),
                  "--health-report", str(out / "s.json")],
        "chaos": ["--export", str(out / "c.trace.json"),
                  "--csv", str(out / "c.csv"),
                  "--health-report", str(out / "c.json")],
        "fabric": ["--csv", str(out / "f.csv"),
                   "--health-report", str(out / "f.json")],
    }
    runs = [[*target, *flags.get(target[0], [])] for target in TARGETS]
    runs += [
        ["list"],
        ["all", "--packets", "20", "--pairs", "10", "--reps", "1"],
        ["chaos", "mild", *flags["chaos"]],
        ["chaos", "severe", *flags["chaos"]],
        ["export", "--out", str(out / "results")],
    ]
    return runs


def run_roots() -> None:
    """Run every root once, with stdout discarded."""
    from repro.__main__ import main
    import workloads

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(
        io.StringIO()
    ):
        for argv in _cli_runs(Path(tmp)):
            if main(argv) != 0:
                raise SystemExit(f"CLI root failed: {' '.join(argv)}")
        for script in sorted((ROOT / "examples").glob("*.py")):
            runpy.run_path(str(script), run_name="__main__")
        for workload in workloads.WORKLOADS.values():
            workload.summarize(workload.run(workload.prepare(0)))


def entered_lines() -> dict[Path, set[int]]:
    """File -> first lines of every code object the roots entered."""
    codes: set = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(profile)
    try:
        run_roots()
    finally:
        sys.setprofile(None)
    lines: dict[Path, set[int]] = {}
    for code in codes:
        lines.setdefault(Path(code.co_filename).resolve(), set()).add(
            code.co_firstlineno
        )
    return lines


def audit() -> tuple[list[str], int]:
    """The report lines and how many of them fail: every definition no
    root enters, kept (with its reason) or not, then every stale
    :data:`KEEP` entry."""
    definitions = public_code()
    entered = entered_lines()
    missed = sorted(
        qualname
        for qualname, (path, lines) in definitions.items()
        if not lines & entered.get(path, set())
    )
    report = [
        f"{len(definitions) - len(missed)} of {len(definitions)} public "
        f"definitions entered; {len(missed)} not"
    ]
    failures = 0
    for name in missed:
        if name in KEEP:
            report.append(f"kept   {name}: {KEEP[name]}")
        elif name in UNNAMED_ALLOWED:
            report.append(f"kept   {name}: UNNAMED_ALLOWED")
        else:
            report.append(f"FAIL   {name}: not entered and not kept")
            failures += 1
    for name in sorted(set(KEEP) - set(definitions)):
        report.append(f"STALE  {name}: kept but no longer defined")
        failures += 1
    for name in sorted(set(KEEP) & set(definitions) - set(missed)):
        report.append(f"STALE  {name}: kept but a root enters it")
        failures += 1
    for name in sorted(name for name, reason in KEEP.items() if not reason):
        report.append(f"FAIL   {name}: kept without a reason")
        failures += 1
    return report, failures


def main() -> int:
    report, failures = audit()
    print("\n".join(report))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
