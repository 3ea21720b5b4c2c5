"""The insertion-ordered DAG against ``networkx``, its reference.

Operator order feeds PE lists, power roll-ups and codegen, so
:meth:`repro.dag.DAG.topological_order` must be exactly the order
``networkx.topological_sort`` yields, after any sequence of node
insertions and edges, some refused as cycles; the cycle verdicts and
weak connectivity must agree too.
"""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dag import DAG
from repro.errors import CompilationError, FabricError
from repro.hardware.fabric import Fabric
from repro.scheduler.dataflow import OPERATOR_PES, DataflowGraph

#: One graph operation: ("node", a, _) or ("edge", a, b).
OPS = st.lists(
    st.tuples(
        st.sampled_from(("node", "node", "edge", "edge", "edge")),
        st.integers(0, 9),
        st.integers(0, 9),
    ),
    max_size=60,
)


def _nx_add_edge(graph: nx.DiGraph, src, dst) -> bool:
    """How the networkx-backed graphs wired an edge: add, then undo on a cycle."""
    graph.add_edge(src, dst)
    if nx.is_directed_acyclic_graph(graph):
        return True
    graph.remove_edge(src, dst)
    return False


def _assert_same(dag, reference: nx.DiGraph, order) -> None:
    assert order == list(nx.topological_sort(reference))
    assert list(dag) == list(reference)
    if len(reference):
        assert dag.is_connected() == nx.is_connected(reference.to_undirected())


def _replay(ops, add_node, add_edge, check):
    """Apply ``ops`` to a graph under test and a networkx mirror."""
    reference = nx.DiGraph()
    for kind, a, b in ops:
        if kind == "node":
            if a not in reference:
                reference.add_node(a)
                add_node(a)
        elif a in reference and b in reference:
            expected = _nx_add_edge(reference, a, b)
            assert add_edge(a, b) == expected
        check(reference)
    return reference


@settings(max_examples=300, deadline=None)
@given(ops=OPS)
def test_dag_matches_networkx(ops):
    dag = DAG()

    def check(reference):
        _assert_same(dag, reference, dag.topological_order())
        for src in range(10):
            for dst in range(10):
                assert dag.has_edge(src, dst) == reference.has_edge(src, dst)

    _replay(ops, dag.add_node, dag.add_edge, check)


@settings(max_examples=150, deadline=None)
@given(ops=OPS)
def test_fabric_matches_networkx(ops):
    """``Fabric.connect`` refuses exactly the cycles networkx found and
    keeps networkx's order."""
    fabric = Fabric()
    ids: dict[int, str] = {}

    def add_node(a):
        ids[a] = fabric.add_pe("ADD", instance_id=f"ADD.{a}")

    def connect(a, b):
        try:
            fabric.connect(ids[a], ids[b])
        except FabricError:
            return False
        return True

    def check(reference):
        named = nx.relabel_nodes(reference, ids)
        _assert_same(fabric.graph, named, fabric.topological_order())

    _replay(ops, add_node, connect, check)


@settings(max_examples=150, deadline=None)
@given(ops=OPS, names=st.lists(st.sampled_from(sorted(OPERATOR_PES)),
                               min_size=10, max_size=10))
def test_dataflow_matches_networkx(ops, names):
    """Operator order, cycle refusals and ``validate``'s connectivity
    verdict follow networkx."""
    graph = DataflowGraph()
    operators = {}

    def add_node(a):
        operators[a] = graph.add_operator(names[a])

    def connect(a, b):
        try:
            graph.connect(operators[a], operators[b])
        except CompilationError:
            return False
        return True

    def check(reference):
        expected = [operators[a] for a in nx.topological_sort(reference)]
        assert graph.operators == expected
        if len(reference) and nx.is_connected(reference.to_undirected()):
            graph.validate()
        else:
            with pytest.raises(CompilationError):
                graph.validate()

    _replay(ops, add_node, connect, check)


def test_self_loop_and_back_edge_refused():
    dag = DAG()
    for node in "abc":
        dag.add_node(node)
    assert not dag.add_edge("a", "a")
    assert dag.add_edge("a", "b") and dag.add_edge("b", "c")
    assert not dag.add_edge("c", "a")
    assert not dag.has_edge("c", "a")
    assert dag.topological_order() == ["a", "b", "c"]
    assert dag.is_connected()


def test_empty_graph_is_not_connected():
    assert not DAG().is_connected()
