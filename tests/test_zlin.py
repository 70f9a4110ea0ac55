"""Unit tests for the exact integer linear algebra layer."""

import random

import pytest

from conftest import minors_diagonal, random_matrix
from polyadc import (
    AmbiguousCoordinates,
    CoefficientOverflow,
    IntVector,
    TorsionError,
    determinant,
    mat_mul,
    monoid_coordinates,
    quotient_free_basis,
    smith_normal_form,
    unimodular_inverse,
)
from polyadc.smith import QuotientBasis


def test_vector_arithmetic_and_parts():
    v = IntVector({"a": 2, "b": -1})
    assert v + IntVector.unit("b") == IntVector({"a": 2})
    assert (v - v).is_zero()
    assert (-v).items() == (("a", -2), ("b", 1))
    assert v.scaled(3)["b"] == -3
    assert v.scaled(0) == IntVector()
    assert v.positive_part() == IntVector({"a": 2})
    assert v.negative_part() == IntVector({"b": 1})
    assert v == v.positive_part() - v.negative_part()
    assert v.support() == {"a", "b"}
    assert not v.is_nonnegative()
    assert v.positive_part().is_nonnegative()


def test_vector_canonical_form():
    assert IntVector({"x": 0}) == IntVector()
    assert IntVector((("x", 1), ("x", -1))).items() == ()
    assert hash(IntVector({"a": 1, "b": 2})) == hash(IntVector((("b", 2), ("a", 1))))
    assert list(IntVector({"b": 1, "a": 1})) == ["a", "b"]


def test_vector_rejects_bad_entries():
    with pytest.raises(TypeError):
        IntVector({1: 1})
    with pytest.raises(TypeError):
        IntVector({"a": True})
    with pytest.raises(TypeError, match="generator names must be strings"):
        IntVector.unit(1)
    assert IntVector.unit("a") == IntVector({"a": 1})


def test_coefficients_are_checked_64_bit():
    edge = IntVector({"x": 2 ** 63 - 1})
    assert edge["x"] == 2 ** 63 - 1
    with pytest.raises(CoefficientOverflow):
        edge + IntVector.unit("x")
    with pytest.raises(CoefficientOverflow):
        edge.scaled(-2)


def test_the_first_coefficient_out_of_range_is_named():
    # the window is checked value by value in insertion order, so the
    # message names the first offender whichever side it leaves by
    for data, first in (({"a": 2**63, "b": -2**63}, 2**63),
                        ({"b": -2**63, "a": 2**63}, -2**63)):
        message = "coefficient %d exceeds the checked 64-bit range" % first
        with pytest.raises(CoefficientOverflow, match=message):
            IntVector._of(data)
        with pytest.raises(CoefficientOverflow, match=message):
            IntVector(data)
    edges = {"a": 2**63 - 1, "b": 0, "c": -(2**63 - 1)}
    assert IntVector._of(edges)._entries == {"a": 2**63 - 1, "c": -(2**63 - 1)}


def test_the_parts_and_units_of_checked_vectors_stay_in_range():
    vec = IntVector({"a": 2**63 - 1, "b": -(2**63 - 1), "c": 0})
    assert vec.positive_part() == IntVector({"a": 2**63 - 1})
    assert vec.negative_part() == IntVector({"b": 2**63 - 1})
    assert vec.positive_part() - vec.negative_part() == vec
    assert IntVector.unit("a").items() == (("a", 1),)


def test_determinant():
    assert determinant([]) == 1
    assert determinant([[5]]) == 5
    assert determinant([[2, 4], [6, 8]]) == -8
    assert determinant([[1, 2], [2, 4]]) == 0
    assert determinant([[0, 1, 0], [1, 0, 0], [0, 0, 1]]) == -1
    with pytest.raises(ValueError):
        determinant([[1, 2]])


def test_smith_normal_form_worked_example():
    a = [[2, 4], [6, 8]]
    snf = smith_normal_form(a)
    assert snf.diagonal == (2, 4)
    assert snf.rank == 2
    assert mat_mul(mat_mul(snf.U, a), snf.V) == [list(r) for r in snf.D]
    assert abs(determinant(snf.U)) == 1
    assert abs(determinant(snf.V)) == 1
    assert mat_mul(snf.U, snf.U_inv) == [[1, 0], [0, 1]]


def test_smith_normal_form_edge_cases():
    assert smith_normal_form([]).diagonal == ()
    assert smith_normal_form([[0, 0], [0, 0]]).diagonal == (0, 0)
    assert smith_normal_form([[2, 4, 6]]).diagonal == (2,)
    # invariant factors are forced even when the input is already diagonal
    assert smith_normal_form([[2, 0], [0, 3]]).diagonal == (1, 6)
    with pytest.raises(ValueError):
        smith_normal_form([[1], [2, 3]])


def test_smith_normal_form_randomized():
    rng = random.Random(20260819)
    for _ in range(60):
        dense = random_matrix(rng, max_side=4, max_entry=6)
        snf = smith_normal_form(dense)
        assert mat_mul(mat_mul(snf.U, dense), snf.V) == [list(r) for r in snf.D]
        assert abs(determinant(snf.U)) == 1
        assert abs(determinant(snf.V)) == 1
        diag = snf.diagonal
        assert all(d >= 0 for d in diag)
        for a, b in zip(diag, diag[1:]):
            if b:
                assert a and b % a == 0
        assert diag == minors_diagonal(dense)


def test_smith_normal_form_against_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    rng = random.Random(6)
    overflowed = 0
    for _ in range(200):
        m, n = rng.randint(1, 6), rng.randint(1, 8)
        dense = [[rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(n)]
                 for _ in range(m)]
        try:
            snf = smith_normal_form(dense)
        except CoefficientOverflow:
            overflowed += 1
            continue
        want = sympy_snf(sympy.Matrix(dense), domain=sympy.ZZ)
        assert snf.diagonal == tuple(abs(int(want[i, i])) for i in range(min(m, n)))
        assert mat_mul(mat_mul(snf.U, dense), snf.V) == [list(r) for r in snf.D]
        assert mat_mul(snf.U, snf.U_inv) == [[int(i == j) for j in range(m)]
                                             for i in range(m)]
    assert overflowed == 0

    # invariant factors 2**62 and 2**63: the second leaves the window
    big = [[2**62, 2**62], [2**62, -2**62]]
    want = sympy_snf(sympy.Matrix(big), domain=sympy.ZZ)
    assert (abs(int(want[0, 0])), abs(int(want[1, 1]))) == (2**62, 2**63)
    with pytest.raises(CoefficientOverflow):
        smith_normal_form(big)


def test_unimodular_inverse():
    a = [[1, 2], [1, 3]]
    inv = unimodular_inverse(a)
    assert mat_mul(a, inv) == [[1, 0], [0, 1]]
    assert mat_mul(inv, a) == [[1, 0], [0, 1]]
    assert unimodular_inverse([[2, 0], [0, 1]]) is None
    assert unimodular_inverse([]) == []
    with pytest.raises(ValueError):
        unimodular_inverse([[1, 2, 3]])


def test_monoid_coordinates_independent_generators():
    x, y = IntVector.unit("x"), IntVector.unit("y")
    assert monoid_coordinates(IntVector({"x": 2, "y": 1}), [x, y]) == (2, 1)
    assert monoid_coordinates(IntVector(), [x, y]) == (0, 0)
    # a negative coefficient is not a monoid combination
    assert monoid_coordinates(IntVector({"x": 1, "y": -1}), [x, y]) is None
    # neither is a non-integral one
    assert monoid_coordinates(IntVector({"x": 1}), [IntVector({"x": 2})]) is None
    # nor a vector outside the generated lattice
    assert monoid_coordinates(
        IntVector({"x": 1, "y": 1}), [IntVector({"x": 1, "y": 2})]
    ) is None
    assert monoid_coordinates(IntVector(), []) == ()
    assert monoid_coordinates(x, []) is None


def test_monoid_coordinates_nonnegative_search():
    u, v = IntVector.unit("u"), IntVector.unit("v")
    # dependent generators, but the target forces a unique answer
    assert monoid_coordinates(v, [u, u, v]) == (0, 0, 1)
    with pytest.raises(AmbiguousCoordinates):
        monoid_coordinates(u, [u, u, v])
    with pytest.raises(AmbiguousCoordinates):
        monoid_coordinates(u + v, [u + v, u, v])


def test_monoid_coordinates_zero_generator():
    u = IntVector.unit("u")
    with pytest.raises(AmbiguousCoordinates):
        monoid_coordinates(u, [u, IntVector()])
    assert monoid_coordinates(IntVector.unit("w"), [u, IntVector()]) is None


def test_monoid_coordinates_out_of_scope():
    x, y = IntVector.unit("x"), IntVector.unit("y")
    with pytest.raises(NotImplementedError):
        monoid_coordinates(IntVector(), [x - y, y - x])


def test_quotient_identifies_generators():
    qb = quotient_free_basis(["x", "y"], [IntVector({"x": 1, "y": -1})])
    assert qb.basis == ("q0",)
    assert qb.class_of(IntVector.unit("x")) == qb.class_of(IntVector.unit("y"))
    assert qb.class_of(IntVector.unit("x")) != IntVector()
    # the section is a right inverse of the projection
    for name in qb.basis:
        assert qb.class_of(qb.section[name]) == IntVector.unit(name)


def test_quotient_with_no_relations_is_free_on_ambient():
    qb = quotient_free_basis(["x", "y", "z"], [])
    assert len(qb.basis) == 3
    classes = {qb.class_of(IntVector.unit(n)).items() for n in ("x", "y", "z")}
    assert len(classes) == 3


def test_quotient_kills_related_chain():
    rel = IntVector({"a": 1, "b": 1, "c": -1})
    qb = quotient_free_basis(["a", "b", "c"], [rel])
    assert qb.class_of(rel) == IntVector()
    assert len(qb.basis) == 2


def test_quotient_columns_follow_ambient_and_basis_order():
    qb = quotient_free_basis(["z", "x", "y"], [IntVector({"x": 1, "y": -1})])
    assert list(qb.projection) == ["z", "x", "y"]
    assert list(qb.section) == list(qb.basis) == ["q0", "q1"]
    assert qb.class_of(IntVector({"z": 2, "x": -1})) == \
        qb.projection["z"].scaled(2) - qb.projection["x"]
    with pytest.raises(ValueError, match="outside the ambient names"):
        qb.class_of(IntVector({"x": 1, "w": 1}))


def test_quotient_classes_check_every_product_and_partial_sum():
    big = 2**62
    qb = QuotientBasis(("q0",), {n: IntVector({"q0": big}) for n in "xyz"}, {})
    assert qb.class_of(IntVector({"x": 1})) == IntVector({"q0": big})
    with pytest.raises(CoefficientOverflow):  # 2 * 2**62
        qb.class_of(IntVector({"x": 2, "y": -1}))
    with pytest.raises(CoefficientOverflow):  # x + y on the way to x + y - z
        qb.class_of(IntVector({"x": 1, "y": 1, "z": -1}))


def test_quotient_torsion_and_bad_relations():
    with pytest.raises(TorsionError):
        quotient_free_basis(["x"], [IntVector({"x": 2})])
    with pytest.raises(ValueError):
        quotient_free_basis(["x"], [IntVector({"z": 1})])
    with pytest.raises(ValueError):
        quotient_free_basis(["x", "x"], [])
