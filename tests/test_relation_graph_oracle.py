"""RelationGraph's components and cycle witnesses against networkx and
against the reference condensation in ``conftest``.

networkx is an independent oracle only; the package itself does not
depend on it, so these tests are skipped where it is not installed.
"""

import pytest

from conftest import (catalog_presentations, random_presentation,
                      reference_antisymmetry, reference_cycle_in,
                      reference_sccs)
from polyadc import generating_relation, lambda_presentation, preorder_report

nx = pytest.importorskip("networkx")


def graphs():
    """The codim-1, full and generating-relation graphs of each presentation."""
    presentations = list(catalog_presentations())
    presentations += [random_presentation(seed) for seed in range(120)]
    for pres in presentations:
        report = preorder_report(pres)
        yield report.codim1
        yield report.full
        yield generating_relation(lambda_presentation(pres))


def is_cycle(graph, path):
    return (len(path) >= 2 and len(set(path)) == len(path)
            and all((u, v) in graph.edges
                    for u, v in zip(path, path[1:] + path[:1])))


def test_components_and_cycles_match_networkx():
    for graph in graphs():
        oracle = nx.DiGraph()
        oracle.add_nodes_from(graph.nodes)
        oracle.add_edges_from(graph.edges)
        expected = {frozenset(c) for c in nx.strongly_connected_components(oracle)}

        components = graph.sccs()
        assert components == reference_sccs(graph)
        assert sorted(n for c in components for n in c) == sorted(graph.nodes)
        assert {frozenset(c) for c in components} == expected

        ok, cycle = graph.antisymmetry()
        assert (ok, cycle) == reference_antisymmetry(graph)
        assert ok == all(len(c) < 2 for c in expected)
        if not ok:
            assert is_cycle(graph, cycle)
        succ = graph.successors()
        for comp in components:
            if len(comp) >= 2:
                witness = graph._cycle_in(succ, set(comp), comp[0])
                assert witness == reference_cycle_in(graph, set(comp), comp[0])
                assert is_cycle(graph, witness)
                assert set(witness) <= set(comp)
