"""An insertion-ordered directed acyclic graph.

The one graph type behind the dataflow IR
(:class:`~repro.scheduler.dataflow.DataflowGraph`) and the per-node PE
fabric (:class:`~repro.hardware.fabric.Fabric`).  Nodes, and each
node's successors, keep insertion order.  :meth:`DAG.topological_order`
is Kahn's algorithm taken generation by generation in that order, which
is the order ``networkx.topological_sort`` yields: PE lists, power
roll-ups and codegen read it, so it must not change.
"""

from __future__ import annotations

from typing import Generic, Hashable, Iterator, TypeVar

N = TypeVar("N", bound=Hashable)


class DAG(Generic[N]):
    """Nodes and edges in insertion order; an edge closing a cycle is refused."""

    def __init__(self) -> None:
        self._succ: dict[N, dict[N, None]] = {}
        self._pred: dict[N, dict[N, None]] = {}

    def __contains__(self, node: object) -> bool:
        return node in self._succ

    def __iter__(self) -> Iterator[N]:
        return iter(self._succ)

    def __len__(self) -> int:
        return len(self._succ)

    def add_node(self, node: N) -> None:
        if node not in self._succ:
            self._succ[node] = {}
            self._pred[node] = {}

    def has_edge(self, src: N, dst: N) -> bool:
        return src in self._succ and dst in self._succ[src]

    def add_edge(self, src: N, dst: N) -> bool:
        """Add ``src -> dst`` between existing nodes unless it would
        close a cycle (a self-loop included); return whether it did."""
        if self._reaches(dst, src):
            return False
        self._succ[src][dst] = None
        self._pred[dst][src] = None
        return True

    def topological_order(self) -> list[N]:
        """Kahn's algorithm, generation by generation in insertion order.

        A FIFO pass over the sources is the same order: each generation
        is appended, in discovery order, while the one before it is read.
        """
        indegree = {node: len(preds) for node, preds in self._pred.items()}
        order = [node for node, d in indegree.items() if d == 0]
        for node in order:
            for child in self._succ[node]:
                indegree[child] -= 1
                if indegree[child] == 0:
                    order.append(child)
        return order

    def is_connected(self) -> bool:
        """Whether every node is reachable ignoring edge direction
        (weak connectivity); an empty graph is not connected."""
        if not self._succ:
            return False
        start = next(iter(self._succ))
        seen = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            for other in (*self._succ[node], *self._pred[node]):
                if other not in seen:
                    seen.add(other)
                    stack.append(other)
        return len(seen) == len(self._succ)

    def _reaches(self, src: N, dst: N) -> bool:
        """Whether a directed path leads from ``src`` to ``dst``."""
        seen = {src}
        stack = [src]
        while stack:
            node = stack.pop()
            if node == dst:
                return True
            for child in self._succ[node]:
                if child not in seen:
                    seen.add(child)
                    stack.append(child)
        return False
