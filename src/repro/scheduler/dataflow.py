"""Dataflow DAGs: the intermediate representation between queries and PEs.

Programs are parsed into directed acyclic dataflow graphs (paper §3.7);
each vertex is an operator bound to a PE (or the MC), each edge carries a
data rate.  The compiler lowers these graphs onto the fabric and the ILP
maps them to flows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dag import DAG
from repro.errors import CompilationError

#: Operator name -> the PE (or "MC") that implements it.
OPERATOR_PES: dict[str, str] = {
    "window": "GATE",
    "fft": "FFT",
    "bbf": "BBF",
    "xcor": "XCOR",
    "svm": "SVM",
    "sbp": "SBP",
    "neo": "NEO",
    "thr": "THR",
    "dwt": "DWT",
    "hash": "HCONV",
    "ngram": "NGRAM",
    "emdh": "EMDH",
    "ccheck": "CCHECK",
    "dtw": "DTW",
    "emd": "MC",
    "kf": "INV",
    "nn": "BMUL",
    "compress": "HCOMP",
    "decompress": "DCOMP",
    "pack": "NPACK",
    "unpack": "UNPACK",
    "store": "SC",
    "load": "SC",
    "select": "CSEL",
    "seizure_detect": "SVM",
    "stimulate": "MC",
    "call_runtime": "MC",
    "map": "GATE",
}


@dataclass(frozen=True)
class Operator:
    """One dataflow vertex."""

    op_id: int
    name: str
    params: dict = field(default_factory=dict, hash=False, compare=False)

    @property
    def pe_name(self) -> str:
        try:
            return OPERATOR_PES[self.name]
        except KeyError:
            raise CompilationError(
                f"operator {self.name!r} has no PE mapping"
            ) from None

    @property
    def runs_on_mc(self) -> bool:
        return OPERATOR_PES.get(self.name) == "MC"


@dataclass
class DataflowGraph:
    """A DAG of operators."""

    graph: DAG[Operator] = field(default_factory=DAG)
    _next_id: int = 0

    def add_operator(self, name: str, **params) -> Operator:
        if name not in OPERATOR_PES:
            raise CompilationError(f"unknown operator {name!r}")
        op = Operator(self._next_id, name, params)
        self._next_id += 1
        self.graph.add_node(op)
        return op

    def connect(self, src: Operator, dst: Operator) -> None:
        if src not in self.graph or dst not in self.graph:
            raise CompilationError("operators must be added before wiring")
        if not self.graph.add_edge(src, dst):
            raise CompilationError(
                "dataflow must stay acyclic (SCALO has no loops)"
            )

    def chain(self, names: list[str]) -> list[Operator]:
        """Add and wire a linear chain of operators."""
        ops = [self.add_operator(name) for name in names]
        for a, b in zip(ops, ops[1:]):
            self.connect(a, b)
        return ops

    @property
    def operators(self) -> list[Operator]:
        return self.graph.topological_order()

    @property
    def pe_names(self) -> list[str]:
        """The PEs this graph needs, in dataflow order (MC ops excluded)."""
        return [op.pe_name for op in self.operators if not op.runs_on_mc]

    def validate(self) -> None:
        """Raise if the graph is empty or disconnected."""
        if not self.graph:
            raise CompilationError("empty dataflow graph")
        if not self.graph.is_connected():
            raise CompilationError("dataflow graph is disconnected")
