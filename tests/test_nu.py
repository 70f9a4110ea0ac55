"""Cell tables over a complex: validity, operations, enumeration, oracle."""

import random

import pytest

from conftest import random_presentation
from polyadc import (
    Adc,
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
    is_strong_steiner_complex,
    is_valid_table,
    lambda_presentation,
    validate_adc,
)
from polyadc.adc import _atom


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
    with pytest.raises(ValueError, match="^atom table of 'alpha' violates cell condition 3; "
                                         "the complex is not unital enough to enumerate$"):
        enumerate_nu(endo)
    # d(012) = 12 + 02 + 01 squares to 2*2 - 2*0, so the atom's two rows
    # in degree 1 have different boundaries
    broken = Adc(
        [["0", "1", "2"], ["01", "02", "12"], ["012"]],
        {"01": IntVector({"1": 1, "0": -1}), "02": IntVector({"2": 1, "0": -1}),
         "12": IntVector({"2": 1, "1": -1}), "012": IntVector({"12": 1, "02": 1, "01": 1})},
        {"0": 1, "1": 1, "2": 1},
    )
    with pytest.raises(ValueError, match="^not a chain complex: dd = 0 fails at '012' "):
        enumerate_nu(broken)


def random_adc(seed):
    """A small complex with arbitrary boundaries and augmentations, so that
    the chain complex laws and unitality may fail."""
    rng = random.Random(seed)
    basis = [["g%d_%d" % (q, i) for i in range(rng.randint(1, 3))]
             for q in range(rng.randint(1, 4))]
    differential = {name: IntVector({below: rng.randint(-2, 2) for below in basis[q - 1]})
                    for q in range(1, len(basis)) for name in basis[q]}
    augmentation = {name: rng.choice((-1, 0, 1, 1, 1, 2)) for name in basis[0]}
    return Adc(basis, differential, augmentation)


ATOM_FAULT_CATALOG = (
    [("oriental", (n,)) for n in range(6)] + [("disk", (n,)) for n in range(6)]
    + [("sphere", (n,)) for n in range(-1, 5)] + [("ordinal", (m,)) for m in range(5)]
    + [("theta2", (3, 2, 0, 1)), ("theta2", (1, 2)), ("theta2", (2, 1, 1)),
       ("theta2", (3, 2, 2, 2))]
    + [(name, ()) for name in ("loop", "endo2cell", "square", "forestA")]
)


def test_atom_faults_agree_with_the_cell_conditions():
    complexes = [build(name, params).as_adc() for name, params in ATOM_FAULT_CATALOG]
    complexes += [lambda_presentation(random_presentation(seed)) for seed in range(120)]
    complexes += [random_adc(seed) for seed in range(200)]
    faults = set()
    for k in complexes:
        for name in k.all_generators():
            ok, cond = is_valid_table(k, atom_to_table(k, name))
            assert _atom(k, name)[1] == cond
            faults.add(cond)
    assert faults == {None, 2, 3}


def test_enumeration_names_a_broken_law_before_unitality():
    # on arbitrary boundaries and augmentations: a complex that breaks a
    # chain complex law is refused with the first failure the parser would
    # name, one that only fails unitality with the faulty atom, and neither
    # is strong Steiner
    refusals = set()
    for seed in range(200):
        k = random_adc(seed)
        failures = validate_adc(k).failures
        try:
            enumerate_nu(k, max_cells=200, max_coeff=4)
        except ValueError as exc:
            if failures:
                want = "not a chain complex: %s = 0 fails at %r (%s)" % failures[0]
                assert str(exc) == want
            else:
                assert str(exc).endswith("the complex is not unital enough to enumerate")
            refusals.add(bool(failures))
        else:
            assert not failures
        if failures:
            assert not is_strong_steiner_complex(k)
    assert refusals == {False, True}


def test_brute_force_agrees_with_enumeration():
    k = triangle()
    enum = enumerate_nu(k, max_coeff=2)
    for q in range(3):
        exhaustive = brute_force_nu(k, q, coeff_cap=2)
        assert set(exhaustive) == set(enum.cells[q])


def test_brute_force_lists_the_cells_in_key_order_and_pads_above_the_top():
    zero = IntVector()
    for k in (triangle(), build("disk", (3,)).as_adc(), build("theta2", (2, 1, 2)).as_adc()):
        top = brute_force_nu(k, k.max_degree, coeff_cap=2)
        for q in range(k.max_degree + 3):
            cells = brute_force_nu(k, q, coeff_cap=2)
            assert list(cells) == sorted(set(cells), key=NuTable.key)
            if q > k.max_degree:
                pad = ((zero, zero),) * (q - k.max_degree)
                assert cells == tuple(NuTable(rows=t.rows + pad) for t in top)


def test_brute_force_smallest_cases():
    interval = build("oriental", (1,)).as_adc()
    cells = brute_force_nu(interval, 1, coeff_cap=2)
    assert len(cells) == 3
    assert sorted(t.is_trivial() for t in cells) == [False, True, True]
    assert brute_force_nu(interval, -1, coeff_cap=2) == ()


@pytest.mark.parametrize("where", ["front", "end"])
def test_a_cell_set_listing_a_table_twice_is_refused(where):
    k = triangle()
    enum = enumerate_nu(k)
    first = enum.cells[1][0]
    ones = (first,) + enum.cells[1] if where == "front" else enum.cells[1] + (first,)
    with pytest.raises(ValueError, match=r"cells\[1\] lists a table more than once"):
        EnumeratedOmegaCat(complex=k, max_dim=2, cells={**enum.cells, 1: ones})


def test_a_cell_set_listing_a_table_under_another_dimension_is_refused():
    # positions in the index are positions in cells[q]: a table filed
    # under another key would land at a position of its own dimension
    k = triangle()
    enum = enumerate_nu(k)
    swapped = {**enum.cells, 0: enum.cells[1], 1: enum.cells[0]}
    with pytest.raises(ValueError, match=r"cells\[0\] lists a table of another dimension"):
        EnumeratedOmegaCat(complex=k, max_dim=2, cells=swapped)
    stray = {**enum.cells, 2: enum.cells[2] + (enum.cells[1][0],)}
    with pytest.raises(ValueError, match=r"cells\[2\] lists a table of another dimension"):
        EnumeratedOmegaCat(complex=k, max_dim=2, cells=stray)


def test_a_cell_set_keyed_above_max_dim_is_refused():
    # the quotient and the basis check read the degrees up to max_dim only
    k = build("oriental", (2,)).as_adc()
    enum = enumerate_nu(k)
    low = {0: enum.cells[0], 1: enum.cells[1]}
    with pytest.raises(ValueError, match=r"cells\[1\] lies above max_dim 0"):
        EnumeratedOmegaCat(complex=k, max_dim=0, cells=low)
    with pytest.raises(ValueError, match=r"cells\[3\] lies above max_dim 2"):
        EnumeratedOmegaCat(complex=k, max_dim=2, cells={**enum.cells, 3: ()})


def test_enumerating_a_presentation_is_a_type_error():
    pres = build("oriental", (2,)).presentation
    with pytest.raises(TypeError, match="expected an Adc, got PolyPresentation; "
                                        "linearize a presentation with lambda_presentation"):
        enumerate_nu(pres)
    assert enumerate_nu(lambda_presentation(pres)).total() == 18
