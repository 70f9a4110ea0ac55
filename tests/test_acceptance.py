"""Acceptance suite.

One test per acceptance criterion, in order. Every check is exact: there
are no tolerances anywhere, all expected values are frozen integers,
strings, or sets of pairs.
"""

import itertools
import random

from conftest import (
    catalog_presentations,
    minors_diagonal,
    random_matrix,
    random_presentation,
    reachable_pairs,
)
from polyadc import (
    Gen,
    Id,
    Comp,
    build,
    brute_force_nu,
    classify,
    compose,
    composable,
    determinant,
    enumerate_nu,
    eval_table,
    face,
    face_expr,
    identity,
    lambda_presentation,
    linearize,
    loop_free_report,
    mat_mul,
    preorder_report,
    smith_normal_form,
    support_expr,
    unitality_failures,
    verify_equivalence,
)
from polyadc.zlin import IntVector


def chain_pairs(names):
    return frozenset(
        (names[i], names[j])
        for i in range(len(names))
        for j in range(i + 1, len(names))
    )


def test_criterion_1_oriental2_preorder_is_total_order():
    """The full support preorder of the 2-oriental is the 7-element chain
    0 < 02 < 012 < 01 < 1 < 12 < 2, in both the polygraph and the complex
    form."""
    expected = chain_pairs(["0", "02", "012", "01", "1", "12", "2"])
    assert len(expected) == 21

    pres = build("oriental", (2,)).as_presentation()
    report = preorder_report(pres)
    assert reachable_pairs(report.full) == expected
    assert report.full_antisymmetric

    complex_ = build("oriental", (2,)).as_adc()
    assert reachable_pairs(loop_free_report(complex_).graph) == expected


def test_criterion_2_counterexample_verdicts():
    """The three counterexample polygraphs fail for exactly the recorded
    reasons: a full-preorder cycle, a codim-1/full split, and an atomicity
    failure with algebraic loop-freeness intact."""
    # two 0-cells joined by opposite 1-cells: the full preorder cycles
    loop = build("loop").as_presentation()
    report = preorder_report(loop)
    assert not report.full_antisymmetric
    assert set(report.full_cycle) == {"a", "f", "b", "g"}

    # a 2-cell on an identity: codim-1 preorder is fine, the full one is not
    endo = build("endo2cell").as_presentation()
    report = preorder_report(endo)
    assert report.codim1_antisymmetric
    assert not report.full_antisymmetric
    assert set(report.full_cycle) == {"alpha", "x"}

    # parallel composites sharing a factor: atomicity fails at (alpha, 1)
    square = build("square").as_presentation()
    verdict = classify(square)
    assert not verdict.atomic
    assert verdict.atomic_witness == ("alpha", 1, frozenset({"f"}))
    assert verdict.strongly_loop_free_algebraic
    assert not verdict.strongly_loop_free_categorical

    # the positive boundary support is strictly inside the target support
    lam = lambda_presentation(square)
    d_alpha = lam.boundary_vec(2, lam.chain(2, IntVector.unit("alpha")))
    positive = d_alpha.positive_part().support()
    target = support_expr(square, face_expr(square, Gen("alpha"), 1, +1))
    assert positive == frozenset({"h"})
    assert target == frozenset({"f", "h"})
    assert positive < target


def test_criterion_3_linearized_identities_in_oriental3():
    """Linearization kills identities and turns composition into addition,
    on the 3-oriental."""
    pres = build("oriental", (3,)).as_presentation()

    assert linearize(pres, Id(Gen("01"))).is_zero()

    whiskered = Comp(0, Gen("012"), Id(Gen("23")))
    assert linearize(pres, whiskered) == IntVector.unit("012")

    pasted = Comp(1, Gen("023"), whiskered)
    assert linearize(pres, pasted) == (
        IntVector.unit("012") + IntVector.unit("023")
    )


def test_criterion_4_interchange_expressions_agree():
    """The two interchange composites in the forest presentation have the
    same linearization and the same cell table."""
    entry = build("forestA")
    pres = entry.as_presentation()
    h1 = entry.expressions["H1"]
    h2 = entry.expressions["H2"]

    expected = IntVector.unit("A") + IntVector.unit("B")
    assert linearize(pres, h1) == expected
    assert linearize(pres, h2) == expected
    assert eval_table(pres, h1) == eval_table(pres, h2)


def test_criterion_5_enumeration_matches_brute_force():
    """Layered enumeration and the bounded brute-force search produce the
    same cell sets on the orientals, and the 2-oriental has the recorded
    nontrivial counts."""
    for n in (1, 2, 3):
        complex_ = build("oriental", (n,)).as_adc()
        enum = enumerate_nu(complex_)
        for q in range(n + 1):
            assert set(enum.cells[q]) == set(brute_force_nu(complex_, q, 3)), \
                "oriental %d, dim %d" % (n, q)

    enum = enumerate_nu(build("oriental", (2,)).as_adc())
    counts = tuple(len(enum.nontrivial(q)) for q in (0, 1, 2))
    assert counts == (3, 4, 1)


def test_criterion_6_roundtrip_equivalences():
    """Enumerating the cells of a strong Steiner complex and linearizing
    back recovers the complex, across the catalog families."""
    cases = [("oriental", n) for n in range(4)]
    cases += [("disk", n) for n in range(5)]
    cases += [("sphere", n) for n in range(-1, 4)]
    cases += [("theta2", 3, 2, 0, 1)]
    for name, *params in cases:
        report = verify_equivalence(build(name, params).as_adc())
        assert report.ok, "%s%r: %s" % (name, tuple(params), report.reason)


def test_criterion_7_proposition_sweep():
    """Structural facts hold over the whole catalog and a randomized family
    of small presentations: the codim-1 preorder sits inside the full one,
    the linearized complex's generating relation transports into it,
    atomicity collapses the three relations into one and forces unitality,
    and the three loop-freeness classifiers agree as implications."""
    presentations = list(catalog_presentations())
    presentations += [random_presentation(seed) for seed in range(120)]
    assert len(presentations) >= 100

    for pres in presentations:
        report = preorder_report(pres)
        codim1_closure = reachable_pairs(report.codim1)
        full_closure = reachable_pairs(report.full)
        assert codim1_closure <= full_closure

        lam = lambda_presentation(pres)
        relation = loop_free_report(lam).graph
        assert relation.edges <= report.codim1.edges

        verdict = classify(pres)  # raises on an inconsistent classification
        if verdict.atomic:
            assert codim1_closure == full_closure
            assert unitality_failures(lam) == ()
            assert reachable_pairs(relation) == full_closure

        algebraic = verdict.strongly_loop_free_algebraic
        categorical = verdict.strongly_loop_free_categorical
        if categorical:
            assert verdict.atomic and algebraic
        if verdict.atomic and algebraic:
            assert categorical


def test_criterion_8_smith_normal_form_properties():
    """Smith decomposition of 500 random small matrices: the factorization
    is exact, the transforms are unimodular, the diagonal divides along its
    length and matches the determinant-gcd oracle."""
    rng = random.Random(88)
    for _ in range(500):
        dense = random_matrix(rng)
        snf = smith_normal_form(dense)
        assert mat_mul(mat_mul(snf.U, dense), snf.V) == [list(r) for r in snf.D]
        assert abs(determinant(snf.U)) == 1
        assert abs(determinant(snf.V)) == 1
        diag = snf.diagonal
        for a, b in zip(diag, diag[1:]):
            assert a >= 0 and b >= 0
            if a == 0:
                assert b == 0
            else:
                assert b % a == 0
        assert tuple(diag) == tuple(minors_diagonal(dense))


def test_criterion_9_structural_laws():
    """Globularity, units, associativity, and interchange hold for every
    admissible tuple of enumerated cells of the 2- and 3-orientals."""
    for n in (2, 3):
        complex_ = build("oriental", (n,)).as_adc()
        enum = enumerate_nu(complex_)

        for q, cells in enum.cells.items():
            # globularity: a deep face does not depend on intermediate faces
            for t in cells:
                for p in range(q):
                    for sign in (-1, +1):
                        f = face(t, p, sign)
                        for r in range(p):
                            for s2 in (-1, +1):
                                assert face(f, r, s2) == face(t, r, s2)

            # units: composing with a padded face changes nothing
            for t in cells:
                for p in range(q):
                    src = face(t, p, -1)
                    tgt = face(t, p, +1)
                    for _ in range(q - p):
                        src = identity(src)
                        tgt = identity(tgt)
                    assert compose(src, t, p) == t
                    assert compose(t, tgt, p) == t

            for p in range(q):
                pairs = [
                    (x, y)
                    for x in cells for y in cells
                    if composable(x, y, p)
                ]

                # identities are functorial for every composition level
                for x, y in pairs:
                    assert identity(compose(x, y, p)) == compose(
                        identity(x), identity(y), p)

                # associativity over every composable triple
                for x, y in pairs:
                    for z in cells:
                        if composable(y, z, p):
                            assert compose(compose(x, y, p), z, p) == \
                                compose(x, compose(y, z, p), p)

                # interchange against every higher level
                for r in range(p + 1, q):
                    r_pairs = [
                        (x, y)
                        for x in cells for y in cells
                        if composable(x, y, r)
                    ]
                    for (x, y), (z, w) in itertools.product(r_pairs, r_pairs):
                        if composable(x, z, p) and composable(y, w, p):
                            assert compose(compose(x, y, r),
                                           compose(z, w, r), p) == \
                                compose(compose(x, z, p),
                                        compose(y, w, p), r)
