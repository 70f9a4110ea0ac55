"""The loop-freeness verdicts and cycle witnesses of ``antisymmetry_of``
against networkx and against the reference condensation in ``conftest``.

networkx is an independent oracle only; the package itself does not
depend on it, so these tests are skipped where it is not installed.
"""

import random

import pytest

from conftest import (catalog_presentations, random_presentation,
                      reference_antisymmetry, reference_cycle_in,
                      reference_sccs, successors)
from polyadc import (RelationGraph, lambda_presentation, loop_free_report,
                     preorder_report)
from polyadc.adc import _cycle_in, antisymmetry_of

nx = pytest.importorskip("networkx")


def graphs():
    """The codim-1, full and generating-relation graphs of each presentation."""
    presentations = list(catalog_presentations())
    presentations += [random_presentation(seed) for seed in range(120)]
    for pres in presentations:
        report = preorder_report(pres)
        yield report.codim1
        yield report.full
        yield loop_free_report(lambda_presentation(pres)).graph


def is_cycle(graph, path):
    return (len(path) >= 2 and len(set(path)) == len(path)
            and all((u, v) in graph.edges
                    for u, v in zip(path, path[1:] + path[:1])))


def random_graphs():
    """Seeded random digraphs on up to 12 nodes, declared out of name order,
    with self-loops and, at the higher densities, several components of
    two or more nodes."""
    for seed in range(400):
        rng = random.Random(seed)
        nodes = tuple("n%d" % i for i in rng.sample(range(30), rng.randint(1, 12)))
        density = rng.random() * 0.35
        yield RelationGraph(nodes, frozenset(
            (u, v) for u in nodes for v in nodes if rng.random() < density))


def chain(n, back=None):
    """c0 -> c1 -> ... -> c(n-1), and c(n-1) -> c(back) when back is given."""
    nodes = tuple("c%d" % i for i in range(n))
    edges = set(zip(nodes, nodes[1:]))
    if back is not None:
        edges.add((nodes[-1], nodes[back]))
    return RelationGraph(nodes, frozenset(edges))


SHAPED = [
    # self-loops only: antisymmetric, since a witness needs two nodes
    RelationGraph(("a", "b"), frozenset({("a", "a"), ("b", "b"), ("a", "b")})),
    # two components of two or more nodes, the later-declared one closed first
    RelationGraph(("x", "y", "b", "a", "c"), frozenset(
        {("x", "y"), ("y", "x"), ("x", "a"), ("a", "b"), ("b", "c"), ("c", "a")})),
    # a cycle reached only after an acyclic prefix, with a self-loop on it
    RelationGraph(("p", "q", "r", "s", "t"), frozenset(
        {("p", "q"), ("q", "r"), ("r", "s"), ("s", "t"), ("t", "r"), ("s", "s")})),
    chain(6, back=3),
]


def check_against_oracles(graph):
    oracle = nx.DiGraph()
    oracle.add_nodes_from(graph.nodes)
    oracle.add_edges_from(graph.edges)
    expected = {frozenset(c) for c in nx.strongly_connected_components(oracle)}

    succ = successors(graph.nodes, graph.edges)
    ok, cycle = antisymmetry_of(graph.nodes, succ)
    assert (ok, cycle) == reference_antisymmetry(graph)
    assert ok == all(len(c) < 2 for c in expected)
    if not ok:
        assert is_cycle(graph, cycle)
    for comp in reference_sccs(graph):
        if len(comp) >= 2:
            witness = _cycle_in(succ, set(comp), comp[0])
            assert witness == reference_cycle_in(graph, set(comp), comp[0])
            assert is_cycle(graph, witness)
            assert set(witness) <= set(comp)


def test_components_and_cycles_match_networkx():
    for graph in graphs():
        check_against_oracles(graph)


@pytest.mark.parametrize("graph", SHAPED, ids=["self-loops", "two-components",
                                               "after-a-prefix", "chain"])
def test_shaped_graphs_match_the_oracles(graph):
    check_against_oracles(graph)


def test_random_digraphs_match_the_oracles():
    seen = set()
    for graph in random_graphs():
        check_against_oracles(graph)
        big = sum(len(c) >= 2 for c in reference_sccs(graph))
        seen.add(min(big, 2))
        seen.add("self-loop" if any(u == v for u, v in graph.edges) else None)
    assert {0, 1, 2, "self-loop"} <= seen


def test_a_successor_map_gives_the_edge_sets_verdict():
    # the classifiers hand over unsorted lists, and leave out the nodes
    # with no successors
    for seed, graph in enumerate(random_graphs()):
        succ = {}
        for u, v in graph.edges:
            succ.setdefault(u, []).append(v)
        rng = random.Random(seed)
        for vs in succ.values():
            rng.shuffle(vs)
        assert antisymmetry_of(graph.nodes, succ) == reference_antisymmetry(graph)


def test_a_long_chain_is_condensed_without_recursion():
    # the witness ends at the root of its component
    graph = chain(10_000, back=0)
    succ = successors(graph.nodes, graph.edges)
    assert antisymmetry_of(graph.nodes, succ) == (False, graph.nodes[1:] + graph.nodes[:1])
    graph = chain(10_000, back=5_000)
    succ = successors(graph.nodes, graph.edges)
    assert antisymmetry_of(graph.nodes, succ) == (
        False, graph.nodes[5_001:] + graph.nodes[5_000:5_001])
    assert antisymmetry_of(graph.nodes, succ) == reference_antisymmetry(graph)
    graph = chain(10_000)
    assert antisymmetry_of(graph.nodes, successors(graph.nodes, graph.edges)) == (True, None)
