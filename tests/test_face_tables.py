"""Generator tables filed at construction against the expression walks.

The reference classifiers below are the ``face_expr``/``support_expr``
double loops that the filed tables replaced in the atomicity check,
``preorder_report`` and the orderability check, each graph condensed
eagerly by the reference Tarjan in ``conftest``; the reference verdict
composes them with the generating relation read off the split
differentials, condensing every graph.  The reference generator table is
the ``linearize(face_expr(...))`` rows that ``eval_table`` built on first
use; the reference boundary is the vector-by-vector sum that
``Adc.boundary`` replaced.  The library must reproduce them exactly.
"""

import json

import pytest

from conftest import catalog_presentations, random_presentation, reference_antisymmetry
from polyadc import (
    Adc,
    CoefficientOverflow,
    Gen,
    InconsistentClassification,
    IntVector,
    NuTable,
    atom_to_table,
    build,
    classify,
    eval_table,
    face_expr,
    lambda_presentation,
    linearize,
    loop_free_report,
    preorder_report,
    support_expr,
    unitality_failures,
)
from polyadc import polygraph
from polyadc.adc import RelationGraph


def faces(pres, name):
    """(p, source support, target support) for every level p below name."""
    for p in range(pres.dim_of(name)):
        yield (p, support_expr(pres, face_expr(pres, Gen(name), p, -1)),
               support_expr(pres, face_expr(pres, Gen(name), p, +1)))


def reference_is_atomic(pres):
    """(atomic, witness)."""
    for name in pres.all_generators():
        for p, src_supp, tgt_supp in faces(pres, name):
            common = src_supp & tgt_supp
            if common:
                return False, (name, p, frozenset(common))
    return True, None


def reference_preorder_report(pres):
    nodes = tuple(pres.all_generators())
    codim1 = set()
    full = set()
    for name in nodes:
        q = pres.dim_of(name)
        for p, src_supp, tgt_supp in faces(pres, name):
            full.update((a, name) for a in src_supp)
            full.update((name, b) for b in tgt_supp)
            if p == q - 1:
                codim1.update((a, name) for a in src_supp)
                codim1.update((name, b) for b in tgt_supp)
    g_codim1 = RelationGraph(nodes=nodes, edges=frozenset(codim1))
    g_full = RelationGraph(nodes=nodes, edges=frozenset(full))
    ok1, cyc1 = reference_antisymmetry(g_codim1)
    okf, cycf = reference_antisymmetry(g_full)
    return polygraph.PreorderReport(
        codim1=g_codim1, full=g_full,
        codim1_antisymmetric=ok1, codim1_cycle=cyc1,
        full_antisymmetric=okf, full_cycle=cycf,
    )


def reference_is_steiner_orderable(pres):
    """(orderable, order, constraint cycle)."""
    nodes = tuple(pres.all_generators())
    position = {name: i for i, name in enumerate(nodes)}
    succ = {name: set() for name in nodes}
    for name in nodes:
        for _, src_supp, tgt_supp in faces(pres, name):
            for a in src_supp:
                for b in tgt_supp:
                    succ[a].add(b)
    for name in nodes:
        if name in succ[name]:
            return False, None, (name,)
    indeg = {name: 0 for name in nodes}
    for a in nodes:
        for b in succ[a]:
            indeg[b] += 1
    ready = {name for name in nodes if indeg[name] == 0}
    order = []
    while ready:
        name = min(ready, key=position.__getitem__)
        ready.discard(name)
        order.append(name)
        for b in succ[name]:
            indeg[b] -= 1
            if indeg[b] == 0:
                ready.add(b)
    if len(order) == len(nodes):
        return True, tuple(order), None
    member = {name for name in nodes if indeg[name] > 0}
    preds = {name: [] for name in member}
    for a in member:
        for b in succ[a]:
            if b in member:
                preds[b].append(a)
    start = min(member, key=position.__getitem__)
    seen = {}
    node = start
    path = []
    while node not in seen:
        seen[node] = len(path)
        path.append(node)
        node = min(preds[node], key=position.__getitem__)
    return False, None, tuple(reversed(path[seen[node]:]))


def reference_generator_table(pres, name):
    rows = tuple(
        (linearize(pres, face_expr(pres, Gen(name), p, -1)),
         linearize(pres, face_expr(pres, Gen(name), p, +1)))
        for p in range(pres.dim_of(name)))
    top = IntVector.unit(name)
    return NuTable(rows=rows + ((top, top),))


def reference_boundary(complex_, vector):
    out = IntVector()
    for name, coeff in vector.items():
        out = out + complex_.diff(name).scaled(coeff)
    return out


def reference_atom_rows(complex_, name):
    top = IntVector.unit(name)
    rows = [(top, top)]
    for _ in range(complex_.degree_of(name)):
        neg_above, pos_above = rows[0]
        rows.insert(0, (reference_boundary(complex_, neg_above).negative_part(),
                        reference_boundary(complex_, pos_above).positive_part()))
    return tuple(rows)


def reference_generating_relation(complex_):
    nodes = tuple(complex_.all_generators())
    edges = set()
    for q in range(1, len(complex_.basis)):
        for name in complex_.basis[q]:
            d = complex_.diff(name)
            edges.update((a, name) for a in d.negative_part().support())
            edges.update((name, b) for b in d.positive_part().support())
    return RelationGraph(nodes=nodes, edges=frozenset(edges))


def reference_verdict(pres):
    atomic, witness = reference_is_atomic(pres)
    pre = reference_preorder_report(pres)
    alg_ok, alg_cycle = reference_antisymmetry(
        reference_generating_relation(lambda_presentation(pres)))
    orderable, order, order_cycle = reference_is_steiner_orderable(pres)
    return polygraph.Verdict(
        atomic=atomic, atomic_witness=witness,
        codim1_antisymmetric=pre.codim1_antisymmetric, codim1_cycle=pre.codim1_cycle,
        full_antisymmetric=pre.full_antisymmetric, full_cycle=pre.full_cycle,
        strongly_loop_free_algebraic=alg_ok, algebraic_cycle=alg_cycle,
        steiner_orderable=orderable, steiner_order=order,
        steiner_cycle=order_cycle,
    )


def presentations():
    """The criterion-7 sweep plus the large classify inputs."""
    out = [("catalog %d" % i, pres) for i, pres in enumerate(catalog_presentations())]
    for name, params in (("ordinal", (200,)), ("disk", (20,)),
                         ("theta2", (2, 25, 30))):
        out.append(("%s%r" % (name, params), build(name, params).as_presentation()))
    out += [("random %d" % seed, random_presentation(seed)) for seed in range(120)]
    return out


PRESENTATIONS = presentations()


@pytest.mark.parametrize("label, pres", PRESENTATIONS,
                         ids=[label for label, _ in PRESENTATIONS])
def test_classifiers_match_the_expression_walks(label, pres):
    for name in pres.all_generators():
        assert eval_table(pres, Gen(name)) == reference_generator_table(pres, name)
    verdict, reference = classify(pres), reference_verdict(pres)
    assert (verdict.atomic, verdict.atomic_witness) == reference_is_atomic(pres)
    report = preorder_report(pres)
    assert report == reference_preorder_report(pres)
    assert ((verdict.steiner_orderable, verdict.steiner_order, verdict.steiner_cycle)
            == reference_is_steiner_orderable(pres))
    assert verdict == reference
    assert (json.dumps(verdict.as_dict(), sort_keys=True)
            == json.dumps(reference.as_dict(), sort_keys=True))
    algebraic = loop_free_report(lambda_presentation(pres)).graph
    assert algebraic == reference_generating_relation(lambda_presentation(pres))
    assert algebraic.edges <= report.codim1.edges <= report.full.edges


def test_graphs_nest_on_random_presentations():
    # classify skips the codim-1 and algebraic condensations on this nesting
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(st.integers(min_value=0, max_value=2**32 - 1))
    def check(seed):
        pres = random_presentation(seed)
        report = preorder_report(pres)
        algebraic = loop_free_report(lambda_presentation(pres)).graph
        assert algebraic.edges <= report.codim1.edges <= report.full.edges
        assert classify(pres) == reference_verdict(pres)

    check()


def test_an_algebraic_edge_outside_the_codim1_graph_is_inconsistent(monkeypatch):
    pres = build("oriental", (2,)).as_presentation()
    real = polygraph._generating_successors

    def forged(complex_):
        succ = real(complex_)
        succ["012"].append("0")
        return succ

    assert ("012", "0") not in preorder_report(pres).codim1.edges
    monkeypatch.setattr(polygraph, "_generating_successors", forged)
    with pytest.raises(InconsistentClassification, match="codim-1"):
        classify(pres)


def test_atom_tables_match_the_vector_by_vector_boundary():
    complexes = [build("oriental", (7,)).as_adc()]
    complexes += [lambda_presentation(pres) for _, pres in PRESENTATIONS]
    for complex_ in complexes:
        for name in complex_.all_generators():
            assert atom_to_table(complex_, name).rows == reference_atom_rows(complex_, name)
        failures = tuple(
            (name, complex_.eps(rows[0][0]), complex_.eps(rows[0][1]))
            for name in complex_.all_generators()
            for rows in [reference_atom_rows(complex_, name)]
            if complex_.eps(rows[0][0]) != 1 or complex_.eps(rows[0][1]) != 1)
        assert unitality_failures(complex_) == failures


def test_boundary_checks_intermediate_coefficients():
    # d(x + y) cancels to zero, but each term leaves the 64-bit window
    big = 2**62
    complex_ = Adc([["v"], ["x", "y"]],
                   {"x": IntVector({"v": big}), "y": IntVector({"v": -big})},
                   {"v": 1})
    with pytest.raises(CoefficientOverflow):
        complex_.boundary_vec(1, IntVector({"x": 4, "y": 4}))
    assert complex_.boundary_vec(1, IntVector({"x": 1, "y": 1})).is_zero()
