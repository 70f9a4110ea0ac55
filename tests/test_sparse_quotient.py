"""The reduce-then-Smith quotient against the dense Smith-form quotient.

``dense_quotient`` is the quotient as it was computed before the sparse
elimination: one Smith normal form over the whole ambient x relations
matrix.  The two may pick different free bases, so they are compared by
what a quotient must satisfy: the same rank and the same torsion verdict,
a projection that kills every relation, a section that the projection
undoes, and ``e - section(projection(e))`` lying in the relation lattice,
which the dense projection decides.  Projections and sections are columns:
one vector per ambient name and one per basis name.
"""

import random

import pytest

from polyadc import (
    CoefficientOverflow,
    EnumerationCapExceeded,
    IntVector,
    TorsionError,
    build,
    enumerate_nu,
    lambda_of_enumerated,
    quotient_free_basis,
    smith_normal_form,
)
from polyadc import smith


def dense_quotient(ambient, relations, name_prefix="q"):
    """The free quotient from the Smith form of the full relation matrix,
    one row per ambient name and one column per relation; only its
    projection is read, so it has no section."""
    ambient = tuple(ambient)
    relations = [IntVector(r) for r in relations]
    snf = smith_normal_form([[r[nm] for r in relations] for nm in ambient])
    diag = snf.diagonal
    for d in diag:
        if d not in (0, 1):
            raise TorsionError("invariant factor %d in quotient" % d)
    free = [i for i in range(len(ambient)) if i >= len(diag) or diag[i] == 0]
    basis = tuple("%s%d" % (name_prefix, k) for k in range(len(free)))
    projection = {amb: IntVector({b: snf.U[i][j] for b, i in zip(basis, free)})
                  for j, amb in enumerate(ambient)}
    return smith.QuotientBasis(basis, projection, {})


def lift(qb, vector):
    """The section applied to a vector over the quotient basis."""
    out = IntVector()
    for b, c in vector.items():
        out = out + qb.section[b].scaled(c)
    return out


def outcome(fn, *args):
    try:
        return fn(*args)
    except TorsionError as exc:
        return type(exc), str(exc)


def assert_agrees(ambient, relations):
    want = outcome(dense_quotient, ambient, relations)
    got = outcome(quotient_free_basis, ambient, relations)
    if isinstance(want, tuple):
        assert got == want
        return
    assert len(got.basis) == len(want.basis)
    for r in relations:
        assert got.class_of(r).is_zero()
    for b in got.basis:
        assert got.class_of(got.section[b]) == IntVector.unit(b)
    for e in ambient:
        unit = IntVector.unit(e)
        back = lift(got, got.class_of(unit))
        assert want.class_of(unit - back).is_zero()


def quotient_inputs(complex_, monkeypatch):
    """The (ambient, relations) pairs lambda_of_enumerated hands over."""
    seen = []
    real = smith.quotient_free_basis

    def record(ambient, relations, name_prefix):
        seen.append((tuple(ambient), list(relations)))
        return real(ambient, seen[-1][1], name_prefix=name_prefix)

    try:
        enum = enumerate_nu(complex_)
    except (EnumerationCapExceeded, ValueError):
        return []
    monkeypatch.setattr(smith, "quotient_free_basis", record)
    lambda_of_enumerated(enum)
    monkeypatch.undo()
    return seen


CATALOG = (
    [("oriental", (n,)) for n in range(4)]
    + [("disk", (n,)) for n in range(5)]
    + [("sphere", (n,)) for n in range(-1, 4)]
    + [("ordinal", (m,)) for m in range(4)]
    + [("theta2", (3, 2, 0, 1)), ("theta2", (1, 2)), ("theta2", (2, 1, 1))]
    + [(name, ()) for name in ("loop", "endo2cell", "square", "forestA")]
)


@pytest.mark.parametrize("name, params", [
    pytest.param(name, params, id=name + "".join("-%d" % x for x in params))
    for name, params in CATALOG
])
def test_catalog_relations_agree_with_the_dense_quotient(name, params, monkeypatch):
    for ambient, relations in quotient_inputs(build(name, params).as_adc(), monkeypatch):
        # duplicates span nothing new; without them the dense oracle on
        # forestA takes seconds instead of most of a minute
        assert_agrees(ambient, list(dict.fromkeys(relations)))


def test_hand_picked_relation_sets():
    a, b, c = (IntVector.unit(n) for n in "abc")
    for relations in (
        [],
        [a.scaled(2)],                       # torsion
        [a.scaled(2), a.scaled(3)],          # no unit pivot, yet gcd 1
        [a.scaled(2) + b.scaled(3)],         # free, no unit pivot
        [a.scaled(4) + b.scaled(6)],         # torsion of order 2
        [a.scaled(2) + b.scaled(2), a - b],  # a unit pivot exposes torsion
        [c - a - b, c - a - b, c - b - a],   # duplicates
        [c - a - b, b - a, c - a.scaled(2)],  # a relation that vanishes
        [a - a],                              # the zero relation
    ):
        assert_agrees(("a", "b", "c"), relations)


def test_seeded_random_relation_sets():
    rng = random.Random(4)
    names = ("g0", "g1", "g2", "g3", "g4", "g5")
    for _ in range(300):
        ambient = names[:rng.randint(1, 6)]
        relations = []
        for _ in range(rng.randint(0, 7)):
            support = rng.sample(ambient, rng.randint(1, len(ambient)))
            relations.append(IntVector({g: rng.choice((-3, -2, -1, 1, 2, 3))
                                        for g in support}))
        assert_agrees(ambient, relations)


def test_random_relation_sets_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    names = ("g0", "g1", "g2", "g3", "g4", "g5")
    coeff = st.integers(min_value=-4, max_value=4)

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(st.data())
    def prop(data):
        ambient = names[:data.draw(st.integers(min_value=1, max_value=6))]
        relation = st.dictionaries(st.sampled_from(ambient), coeff, max_size=4)
        relations = [IntVector(r) for r in
                     data.draw(st.lists(relation, max_size=8))]
        assert_agrees(ambient, relations)

    prop()


def test_substitution_overflow_is_reported():
    x, y, z = (IntVector.unit(n) for n in "xyz")
    big = 2**62
    # x := big * y, then the second relation becomes 2**63 * y - z
    relations = [x - y.scaled(big), x + y.scaled(big) - z]
    with pytest.raises(CoefficientOverflow):
        quotient_free_basis(("x", "y", "z"), relations)
    # a, b and c each become big * y; a + b - c - w sums to big * y - w,
    # but its partial sum a + b is 2**63 * y, outside the window
    a, b, c = (IntVector.unit(n) for n in "abc")
    relations = [a - y.scaled(big), b - y.scaled(big), c - y.scaled(big),
                 IntVector((("a", 1), ("b", 1), ("c", -1), ("w", -1)))]
    with pytest.raises(CoefficientOverflow):
        quotient_free_basis(("a", "b", "c", "w", "y"), relations)
