"""Compiler: query AST -> dataflow DAG -> PE pipeline (paper §3.7).

The chain's method names map onto dataflow operators (and thence PEs);
windowing parameters become operator attributes the scheduler uses.  The
output is (a) a :class:`~repro.scheduler.dataflow.DataflowGraph`, and
(b) a wired :class:`~repro.hardware.fabric.Fabric` pipeline ready for the
latency roll-up — the reproduction's stand-in for the RISC-V
configuration binary the real toolchain emits.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CompilationError
from repro.hardware.fabric import Fabric
from repro.hardware.pipeline import Pipeline
from repro.lang.ast import QueryChain
from repro.scheduler.dataflow import OPERATOR_PES, DataflowGraph

#: Query method name -> dataflow operator name.  Methods matching an
#: operator name map to themselves.
METHOD_OPERATORS: dict[str, str] = {
    "window": "window",
    "sbp": "sbp",
    "fft": "fft",
    "bbf": "bbf",
    "xcor": "xcor",
    "svm": "svm",
    "neo": "neo",
    "thr": "thr",
    "dwt": "dwt",
    "kf": "kf",
    "nn": "nn",
    "hash": "hash",
    "ccheck": "ccheck",
    "dtw": "dtw",
    "emd": "emd",
    "select": "select",
    "Map": "map",
    "map": "map",
    "seizure_detect": "seizure_detect",
    "stimulate": "stimulate",
    "call_runtime": "call_runtime",
    "store": "store",
    "load": "load",
}


@dataclass
class CompiledQuery:
    """The compiler's output for one query."""

    chain: QueryChain
    dataflow: DataflowGraph
    window_ms: float | None
    pe_names: list[str]
    mc_operators: list[str]

    def build_pipeline(self) -> Pipeline:
        """Wire the PE chain on a fresh fabric and return the pipeline."""
        name = self.chain.var_name or "query"
        return Fabric().wire_chain(name, self.pe_names)


def compile_query(chain: QueryChain) -> CompiledQuery:
    """Lower a parsed chain to a dataflow graph and PE list.

    Raises:
        CompilationError: for methods with no operator mapping.
    """
    dataflow = DataflowGraph()
    window_ms: float | None = None
    previous = None
    for call in chain.calls:
        try:
            op_name = METHOD_OPERATORS[call.name]
        except KeyError:
            raise CompilationError(
                f"method {call.name!r} is not supported on device; "
                f"supported: {sorted(METHOD_OPERATORS)}"
            ) from None
        params = {key: value for key, value in call.kwargs}
        operator = dataflow.add_operator(op_name, **params)
        if previous is not None:
            dataflow.connect(previous, operator)
        previous = operator
        if op_name == "window":
            wsize = call.kwarg("wsize")
            if wsize is not None and wsize.kind == "duration_ms":
                window_ms = wsize.number
    dataflow.validate()

    pe_names = []
    mc_ops = []
    for operator in dataflow.operators:
        if operator.runs_on_mc:
            mc_ops.append(operator.name)
        else:
            pe_names.append(OPERATOR_PES[operator.name])
    return CompiledQuery(chain, dataflow, window_ms, pe_names, mc_ops)


def compile_text(text: str) -> CompiledQuery:
    """Parse + compile in one step."""
    from repro.lang.parser import parse_query

    return compile_query(parse_query(text))
