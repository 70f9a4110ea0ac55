"""Cell tables over a complex: validity, operations, enumeration, oracle."""

import pytest

from polyadc import (
    EnumeratedOmegaCat,
    EnumerationCapExceeded,
    IntVector,
    NotComposable,
    NuTable,
    atom_to_table,
    brute_force_nu,
    build,
    composable,
    compose,
    enumerate_nu,
    face,
    identity,
    indecomposables,
    is_valid_table,
    lambda_presentation,
)


def triangle():
    return build("oriental", (2,)).as_adc()


def unit(name):
    return IntVector.unit(name)


def test_atom_tables_are_valid_cells():
    k = triangle()
    for name in k.all_generators():
        assert is_valid_table(k, atom_to_table(k, name)) == (True, None)


def test_condition_1_positivity_and_support():
    k = triangle()
    t = atom_to_table(k, "012")
    doctored = NuTable(rows=(
        t.rows[0],
        (t.rows[1][0], IntVector({"01": 1, "12": -1})),
        t.rows[2],
    ))
    assert is_valid_table(k, doctored) == (False, 1)
    wrong_degree = NuTable(rows=(
        t.rows[0],
        (t.rows[1][0], unit("0")),
        t.rows[2],
    ))
    assert is_valid_table(k, wrong_degree) == (False, 1)


def test_condition_2_boundaries_match():
    k = triangle()
    t = atom_to_table(k, "012")
    doctored = NuTable(rows=(
        t.rows[0],
        (t.rows[1][0], IntVector({"01": 2, "12": 1})),
        t.rows[2],
    ))
    assert is_valid_table(k, doctored) == (False, 2)


def test_condition_3_augmentation_one():
    k = triangle()
    heavy = IntVector({"0": 2})
    assert is_valid_table(k, NuTable(rows=((heavy, heavy),))) == (False, 3)


def test_condition_4_equal_top():
    k = triangle()
    assert is_valid_table(k, NuTable(rows=((unit("0"), unit("1")),))) == (False, 4)


def test_faces_of_the_triangle_atom():
    k = triangle()
    t = atom_to_table(k, "012")
    assert face(t, 1, -1) == atom_to_table(k, "02")
    assert face(t, 0, -1) == atom_to_table(k, "0")
    assert face(t, 0, +1) == atom_to_table(k, "2")
    long_side = compose(atom_to_table(k, "01"), atom_to_table(k, "12"), 0)
    assert face(t, 1, +1) == long_side
    with pytest.raises(ValueError):
        face(t, 2, -1)
    with pytest.raises(ValueError):
        face(t, 0, 0)


def test_composition_along_objects():
    k = triangle()
    a01, a12 = atom_to_table(k, "01"), atom_to_table(k, "12")
    both = compose(a01, a12, 0)
    assert both.rows == (
        (unit("0"), unit("2")),
        (IntVector({"01": 1, "12": 1}), IntVector({"01": 1, "12": 1})),
    )
    assert is_valid_table(k, both) == (True, None)
    assert composable(a01, a12, 0)
    assert not composable(a12, a01, 0)


def test_identities_are_trivial_tables():
    k = triangle()
    a0 = atom_to_table(k, "0")
    id0 = identity(a0)
    assert id0.dim == 1
    assert id0.is_trivial()
    assert not a0.is_trivial()
    assert face(id0, 0, -1) == a0
    # units are neutral
    a01 = atom_to_table(k, "01")
    assert compose(a01, identity(face(a01, 0, +1)), 0) == a01
    assert compose(identity(face(a01, 0, -1)), a01, 0) == a01


def test_compose_rejects_mismatches():
    k = triangle()
    a01, a12, a012 = (atom_to_table(k, n) for n in ("01", "12", "012"))
    with pytest.raises(NotComposable):
        compose(a12, a01, 0)
    with pytest.raises(NotComposable):
        compose(a01, a01, 0)
    with pytest.raises(NotComposable):
        compose(a01, a012, 0)
    with pytest.raises(NotComposable):
        compose(a012, a012, 5)


def test_enumeration_of_the_triangle():
    enum = enumerate_nu(triangle(), max_coeff=2)
    assert {q: len(cells) for q, cells in enum.cells.items()} == {0: 3, 1: 7, 2: 8}
    assert tuple(len(enum.nontrivial(q)) for q in (0, 1, 2)) == (3, 4, 1)
    assert enum.total() == 18
    a012 = atom_to_table(triangle(), "012")
    assert a012 in enum
    assert enum.atom_names[a012] == "012"


def test_enumeration_pads_identities_up_to_max_dim():
    enum = enumerate_nu(triangle(), max_dim=3, max_coeff=2)
    assert len(enum.cells[3]) == 8
    assert all(t.is_trivial() for t in enum.cells[3])


def test_enumeration_caps():
    with pytest.raises(EnumerationCapExceeded):
        enumerate_nu(triangle(), max_cells=5)
    loop = lambda_presentation(build("loop").as_presentation())
    with pytest.raises(EnumerationCapExceeded):
        enumerate_nu(loop, max_coeff=6)


def test_enumeration_needs_valid_atoms():
    endo = lambda_presentation(build("endo2cell").as_presentation())
    with pytest.raises(ValueError):
        enumerate_nu(endo)


def test_brute_force_agrees_with_enumeration():
    k = triangle()
    enum = enumerate_nu(k, max_coeff=2)
    for q in range(3):
        exhaustive = brute_force_nu(k, q, coeff_cap=2)
        assert set(exhaustive) == enum.cell_set(q)


def test_brute_force_smallest_cases():
    interval = build("oriental", (1,)).as_adc()
    cells = brute_force_nu(interval, 1, coeff_cap=2)
    assert len(cells) == 3
    assert sorted(t.is_trivial() for t in cells) == [False, True, True]
    assert brute_force_nu(interval, -1, coeff_cap=2) == ()


def test_indecomposables_of_the_triangle():
    k = triangle()
    ind = indecomposables(enumerate_nu(k, max_coeff=2))
    assert set(ind[0]) == {atom_to_table(k, n) for n in ("0", "1", "2")}
    assert set(ind[1]) == {atom_to_table(k, n) for n in ("01", "02", "12")}
    assert set(ind[2]) == {atom_to_table(k, "012")}


@pytest.mark.parametrize("where", ["front", "end"])
def test_a_cell_set_listing_a_table_twice_is_refused(where):
    k = triangle()
    enum = enumerate_nu(k)
    first = enum.cells[1][0]
    ones = (first,) + enum.cells[1] if where == "front" else enum.cells[1] + (first,)
    with pytest.raises(ValueError, match=r"cells\[1\] lists a table more than once"):
        EnumeratedOmegaCat(complex=k, max_dim=2, cells={**enum.cells, 1: ones})
