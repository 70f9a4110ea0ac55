"""Quotient linearization of cell sets and the equivalence checker."""

import pytest

from polyadc import (
    EnumeratedOmegaCat,
    EnumerationCapExceeded,
    IntVector,
    QuotientLambda,
    atom_to_table,
    build,
    check_omega_basis,
    compose,
    enumerate_nu,
    identity,
    lambda_of_enumerated,
    lambda_presentation,
    verify_equivalence,
)


def triangle():
    return build("oriental", (2,)).as_adc()


def all_atoms(k):
    return [atom_to_table(k, name) for name in k.all_generators()]


def test_quotient_of_the_interval():
    k = build("oriental", (1,)).as_adc()
    ql = lambda_of_enumerated(enumerate_nu(k, max_coeff=2))
    assert {q: ql.rank(q) for q in (0, 1)} == {0: 2, 1: 1}
    # identity 1-cells die in the quotient, the edge does not
    assert ql.class_of(identity(atom_to_table(k, "0"))) == IntVector()
    assert ql.class_of(atom_to_table(k, "01")) != IntVector()
    assert all(ql.complex.eps_gen(g) == 1 for g in ql.complex.generators(0))
    with pytest.raises(ValueError):
        ql.class_of(atom_to_table(triangle(), "012"))


def test_quotient_sends_composition_to_addition():
    k = triangle()
    ql = lambda_of_enumerated(enumerate_nu(k, max_coeff=2))
    a01, a12 = atom_to_table(k, "01"), atom_to_table(k, "12")
    both = compose(a01, a12, 0)
    assert ql.class_of(both) == ql.class_of(a01) + ql.class_of(a12)
    assert {q: ql.rank(q) for q in (0, 1, 2)} == {0: 3, 1: 3, 2: 1}


def test_quotient_requires_face_closed_input():
    k = triangle()
    partial = EnumeratedOmegaCat(
        complex=k,
        max_dim=1,
        cells={0: (atom_to_table(k, "0"),), 1: (atom_to_table(k, "01"),)},
    )
    with pytest.raises(ValueError):
        lambda_of_enumerated(partial)


def test_atoms_are_a_basis_of_the_triangle():
    k = triangle()
    enum = enumerate_nu(k, max_coeff=2)
    rep = check_omega_basis(enum, all_atoms(k))
    assert rep.ok
    assert rep.failed is None


def test_basis_check_flags_missing_generators():
    k = triangle()
    enum = enumerate_nu(k, max_coeff=2)
    atoms = [atom_to_table(k, n) for n in ("0", "1", "2", "01", "02", "12")]
    rep = check_omega_basis(enum, atoms)
    assert not rep.ok
    assert rep.failed == "generation"


def test_basis_check_flags_shared_classes():
    k = triangle()
    enum = enumerate_nu(k, max_coeff=2)
    padded = all_atoms(k) + [
        identity(atom_to_table(k, "0")),
        identity(atom_to_table(k, "1")),
    ]
    rep = check_omega_basis(enum, padded)
    assert not rep.ok
    assert rep.failed == "injectivity"


def test_basis_check_flags_wrong_rank():
    k = triangle()
    enum = enumerate_nu(k, max_coeff=2)
    a01, a12 = atom_to_table(k, "01"), atom_to_table(k, "12")
    padded = all_atoms(k) + [compose(a01, a12, 0)]
    rep = check_omega_basis(enum, padded)
    assert not rep.ok
    assert rep.failed == "z-basis"


def test_basis_check_rejects_foreign_tables():
    k = triangle()
    enum = enumerate_nu(k, max_coeff=2)
    stranger = atom_to_table(build("oriental", (3,)).as_adc(), "0123")
    with pytest.raises(ValueError):
        check_omega_basis(enum, [stranger])


def test_equivalence_on_the_triangle():
    rep = verify_equivalence(triangle())
    assert rep.ok
    assert rep.cell_counts == {0: 3, 1: 7, 2: 8}
    assert rep.ranks == {0: 3, 1: 3, 2: 1}


def test_equivalence_on_the_empty_complex():
    rep = verify_equivalence(build("sphere", (-1,)).as_adc())
    assert rep.ok
    assert rep.cell_counts == {}


def test_equivalence_precondition_is_reported_not_raised():
    loop = lambda_presentation(build("loop").as_presentation())
    rep = verify_equivalence(loop)
    assert not rep.ok
    assert rep.reason == "not a strong Steiner complex"


def test_equivalence_propagates_enumeration_caps():
    with pytest.raises(EnumerationCapExceeded):
        verify_equivalence(build("oriental", (3,)).as_adc(), max_cells=10)


def with_classes(ql, q, classes):
    """``ql`` with the degree-q class of each cell name replaced as given."""
    return QuotientLambda(complex=ql.complex, cells=ql.cells, cell_names=ql.cell_names,
                          projections={**ql.projections, q: classes},
                          sections=ql.sections)


def test_basis_check_flags_negative_coordinates():
    k = triangle()
    enum = enumerate_nu(k, max_coeff=2)
    ql = lambda_of_enumerated(enum)
    # the composite 01 . 12 given the class [01] - [12] instead of
    # [01] + [12]: the atom classes are still a Z-basis, but that
    # composite's coordinates over them are (1, -1, 0)
    a01, a12 = atom_to_table(k, "01"), atom_to_table(k, "12")
    both = ql.cell_names[1][ql.cells[1].index(compose(a01, a12, 0))]
    classes = dict(ql.projections[1])
    classes[both] = ql.class_of(a01) - ql.class_of(a12)
    rep = check_omega_basis(enum, all_atoms(k), with_classes(ql, 1, classes))
    assert (rep.ok, rep.failed, rep.detail) == \
        (False, "n-basis", "a 1-cell class is not a non-negative combination")


def test_basis_check_flags_classes_that_are_not_unimodular():
    # the class of the atom 01 doubled, so that the atom classes span a
    # sublattice of index 2, or made the sum of the other two, so that
    # they span a plane: as many classes as the rank, all distinct
    k = triangle()
    enum = enumerate_nu(k, max_coeff=2)
    ql = lambda_of_enumerated(enum)
    a01, a02, a12 = (atom_to_table(k, n) for n in ("01", "02", "12"))
    name = ql.cell_names[1][ql.cells[1].index(a01)]
    for forged in (ql.class_of(a01).scaled(2), ql.class_of(a02) + ql.class_of(a12)):
        classes = dict(ql.projections[1])
        classes[name] = forged
        rep = check_omega_basis(enum, all_atoms(k), with_classes(ql, 1, classes))
        assert (rep.ok, rep.failed, rep.detail) == \
            (False, "z-basis", "candidate classes are not unimodular in degree 1")


def test_basis_check_is_blind_to_a_change_of_quotient_basis():
    # coordinates over the candidate classes do not depend on the basis the
    # classes are written in; b0 -> b0 + b1 + b2, b1 -> b1 + b2 is unimodular
    k = triangle()
    enum = enumerate_nu(k, max_coeff=2)
    ql = lambda_of_enumerated(enum)
    b0, b1, b2 = ql.complex.generators(1)
    shear = {b0: IntVector({b0: 1, b1: 1, b2: 1}), b1: IntVector({b1: 1, b2: 1}),
             b2: IntVector.unit(b2)}
    classes = {}
    for name, cls in ql.projections[1].items():
        classes[name] = IntVector()
        for b, c in cls.items():
            classes[name] = classes[name] + shear[b].scaled(c)
    rep = check_omega_basis(enum, all_atoms(k), with_classes(ql, 1, classes))
    assert rep.ok


def theta2_counts(m, *widths):
    """Cells per dimension of theta2(m, k1..km) in closed form: a 1-cell is
    an identity or one of the k+1 edges in each column of an interval, a
    2-cell the same with an ordered pair of edges."""
    ones = twos = m + 1
    for i in range(m):
        p1 = p2 = 1
        for k in widths[i:]:
            p1 *= k + 1
            p2 *= (k + 1) * (k + 2) // 2
            ones += p1
            twos += p2
    return {0: m + 1, 1: ones, 2: twos}


def test_equivalence_on_theta2_3_2_2_2():
    # 2,354 relations in degree 2; the dense Smith form took about 70 s
    rep = verify_equivalence(build("theta2", (3, 2, 2, 2)).as_adc())
    assert rep.ok
    assert rep.cell_counts == theta2_counts(3, 2, 2, 2) == {0: 4, 1: 58, 2: 310}
    assert rep.ranks == {0: 4, 1: 9, 2: 6}


def test_certifying_a_presentation_is_a_type_error():
    pres = build("oriental", (2,)).presentation
    with pytest.raises(TypeError, match="expected an Adc, got PolyPresentation; "
                                        "linearize a presentation with lambda_presentation"):
        verify_equivalence(pres)
    assert verify_equivalence(lambda_presentation(pres)).ok
