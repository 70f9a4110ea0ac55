"""The top-row certificate against the Smith-form quotient it replaced on
the roundtrip path.

On every enumeration the tests can reach, the certificate passes exactly
where the quotient has the generator counts as ranks and the atoms pass the
basis check.  Broken cell sets (a composition that does not add top rows,
a generator that no seed names, an identity over the wrong cell, a missing
face, provenance out of range) must be caught by the certificate itself.
"""

from functools import partial

import pytest

from conftest import decoded_positions, random_presentation, reference_close
from polyadc import (
    Adc,
    EnumerationCapExceeded,
    EnumeratedOmegaCat,
    atom_to_table,
    build,
    check_omega_basis,
    compose,
    enumerate_nu,
    identity,
    is_strong_steiner_complex,
    lambda_of_enumerated,
    lambda_presentation,
    top_row_certificate,
    verify_equivalence,
)
from polyadc import nu
from polyadc.zlin import ZERO

CATALOG = (
    [("oriental", (n,)) for n in range(5)]
    + [("disk", (n,)) for n in range(6)]
    + [("sphere", (n,)) for n in range(-1, 5)]
    + [("ordinal", (m,)) for m in range(4)]
    + [("theta2", (3, 2, 0, 1)), ("theta2", (1, 2)), ("theta2", (2, 1, 1)),
       ("theta2", (3, 2, 2, 2))]
    + [(name, ()) for name in ("loop", "endo2cell", "square", "forestA")]
)


def complexes():
    out = [pytest.param(build(name, params).as_adc(),
                        id=name + "".join("-%d" % x for x in params))
           for name, params in CATALOG]
    out += [pytest.param(lambda_presentation(random_presentation(seed, acyclic)),
                         id="%s%d" % ("acyclic" if acyclic else "random", seed))
            for acyclic in (False, True) for seed in range(120)]
    return out


def smith_form_verdict(enum):
    """The verdict of the quotient path: ranks equal to the generator
    counts and the atoms a basis."""
    quotient = lambda_of_enumerated(enum)
    ranks = {q: quotient.rank(q) for q in range(enum.max_dim + 1)}
    counts = {q: len(enum.complex.generators(q)) for q in range(enum.max_dim + 1)}
    return ranks == counts and check_omega_basis(enum, list(enum.atom_names), quotient).ok


@pytest.mark.parametrize("complex_", complexes())
def test_certificate_agrees_with_the_smith_form_quotient(complex_):
    try:
        enum = enumerate_nu(complex_, max_cells=3000)
    except (EnumerationCapExceeded, ValueError):
        # not unital, or a loop makes the closure infinite
        assert not is_strong_steiner_complex(complex_)
        return
    certified = top_row_certificate(enum) is None
    assert certified == smith_form_verdict(enum)
    if is_strong_steiner_complex(complex_):
        assert certified
        report = verify_equivalence(complex_, max_cells=3000)
        assert report.ok
        assert report.ranks == {q: lambda_of_enumerated(enum).rank(q)
                                for q in range(enum.max_dim + 1)}


@pytest.mark.parametrize("complex_", complexes())
def test_provenance_reproduces_every_cell(complex_):
    try:
        enum = enumerate_nu(complex_, max_cells=3000)
    except (EnumerationCapExceeded, ValueError):
        return
    index = enum.index
    for q, tables in enum.cells.items():
        provenance = index.provenance.get(q, [])
        assert len(provenance) == len(tables)
        for k, (x, origin) in enumerate(zip(tables, provenance)):
            if origin is None:
                assert x in enum.atom_names
            elif len(origin) == 1:
                (i,) = origin
                assert identity(enum.cells[q - 1][i]) == x
                assert index.located[q][index.rows.identity(index.codes[q - 1][i])] == k
            else:
                p, i, j = origin
                assert i < k and j < k
                assert compose(tables[i], tables[j], p) == x
                assert index.products[q][origin] == k
    assert set(enum.atom_names) == {t for q, tables in enum.cells.items()
                                    for t, o in zip(tables, index.provenance[q])
                                    if o is None}


def test_a_hand_built_index_has_only_seeds():
    k = build("oriental", (2,)).as_adc()
    enum = enumerate_nu(k)
    rebuilt = EnumeratedOmegaCat(complex=k, max_dim=enum.max_dim, cells=enum.cells,
                                 atom_names=enum.atom_names)
    assert all(origin is None for q in rebuilt.index.provenance
               for origin in rebuilt.index.provenance[q])
    # the first non-atom cell is a seed but not an atom
    assert top_row_certificate(rebuilt) == "1-cell 3 has no provenance"


def test_a_generator_no_cell_mentions_is_unnamed():
    # the coder of a hand-built set has slots only for the generators its
    # cells mention; the seeds must still name every generator of the complex
    k = build("oriental", (2,)).as_adc()
    cells = {0: tuple(atom_to_table(k, n) for n in "012"),
             1: (atom_to_table(k, "01"), atom_to_table(k, "02"))}
    built = EnumeratedOmegaCat(complex=k, max_dim=1, cells=cells)
    assert sorted(built.index.rows.slots[1]) == ["01", "02"]
    assert top_row_certificate(built) == "the 1-atoms are not the 1-generators one each"


# ---------------------------------------------------------------------------
# broken cell sets

MUTANT_INPUTS = [("oriental", (2,)), ("oriental", (3,)), ("disk", (3,)),
                 ("sphere", (2,)), ("theta2", (3, 2, 0, 1))]


# where the mutant below is caught: on disk and sphere every 1-cell pair
# that it would break has an identity factor along the top face, which the
# closure does not compose, so the first wrong cell is a 2-cell
FIRST_FACTOR_CAUGHT = {("oriental", (2,)): "1-cell 6", ("oriental", (3,)): "1-cell 10",
                       ("disk", (3,)): "2-cell 6", ("sphere", (2,)): "2-cell 6",
                       ("theta2", (3, 2, 0, 1)): "1-cell 10"}


@pytest.mark.parametrize("name, params", MUTANT_INPUTS)
def test_a_composition_that_does_not_add_top_rows_is_caught(name, params,
                                                            monkeypatch):
    complex_ = build(name, params).as_adc()
    real = nu.PackedRows.compose

    def first_factor_on_top(self, x, y, p):
        code = real(self, x, y, p)
        top = x[-1]
        return code[:-2] + (top, top)

    monkeypatch.setattr(nu.PackedRows, "compose", first_factor_on_top)
    report = verify_equivalence(complex_)
    assert not report.ok
    assert report.reason == ("atoms are not a basis (certificate: the top row of %s "
                             "disagrees with its provenance)"
                             % FIRST_FACTOR_CAUGHT[name, params])


@pytest.mark.parametrize("name, params", MUTANT_INPUTS)
def test_an_unnamed_atom_is_caught(name, params, monkeypatch):
    # the closure is seeded with every atom but the last top one, so no
    # seed names its generator
    complex_ = build(name, params).as_adc()
    q = complex_.max_degree
    dropped = atom_to_table(complex_, complex_.generators(q)[-1])
    real = nu._close

    def without(rows, seeds, max_dim, admit):
        left_out = rows.encode(dropped.rows)
        return real(rows, [code for code in seeds if code != left_out], max_dim, admit)

    monkeypatch.setattr(nu, "_close", without)
    enum = enumerate_nu(complex_)
    monkeypatch.undo()
    assert dropped not in enum
    assert top_row_certificate(enum) == \
        "the %d-atoms are not the %d-generators one each" % (q, q)
    # the oracle agrees
    assert not smith_form_verdict(enum)


def test_an_atom_named_after_the_wrong_generator_is_caught():
    # the seeds 01 and 12 swap top rows: each names the other's generator,
    # whose boundary is not the difference of its faces
    complex_ = build("oriental", (2,)).as_adc()
    enum = enumerate_nu(complex_)
    codes = enum.index.codes[1]
    k01, k12 = (enum.cells[1].index(atom_to_table(complex_, n)) for n in ("01", "12"))
    x01, x12 = codes[k01], codes[k12]
    codes[k01], codes[k12] = x01[:-2] + x12[-2:], x12[:-2] + x01[-2:]
    assert top_row_certificate(enum) == \
        "the boundary of the top row of 1-cell %d is not the difference of its faces" % k01
    # a seed with the top row of an earlier one names no generator left
    codes[k01] = x01
    assert k01 < k12
    assert top_row_certificate(enum) == "1-cell %d has no provenance" % k12


def test_an_identity_over_the_wrong_cell_is_caught(monkeypatch):
    complex_ = build("oriental", (2,)).as_adc()
    a01, a02 = atom_to_table(complex_, "01"), atom_to_table(complex_, "02")
    real = nu.PackedRows.identity

    def misdirected(self, code):
        return real(self, self.encode(a02.rows) if self.decode(code) == a01 else code)

    monkeypatch.setattr(nu.PackedRows, "identity", misdirected)
    report = verify_equivalence(complex_)
    assert not report.ok
    assert report.reason.startswith("atoms are not a basis (certificate: 2-cell ")
    assert report.reason.endswith(" differs below its top row from the cell it "
                                  "is the identity of)")


def test_a_missing_face_is_caught():
    complex_ = build("oriental", (2,)).as_adc()
    atoms = [atom_to_table(complex_, n) for n in complex_.all_generators()]
    target = compose(atom_to_table(complex_, "01"), atom_to_table(complex_, "12"), 0)
    assert nu.face(atom_to_table(complex_, "012"), 1, +1) == target
    index = nu.close_under_composition(atoms, 2, lambda table: table != target)
    enum = EnumeratedOmegaCat(
        complex=complex_, max_dim=2,
        cells={q: tuple(decoded_positions(index).get(q, ())) for q in range(3)},
        atom_names={t: n for t, n in zip(atoms, complex_.all_generators())},
    )
    enum.index = index
    assert top_row_certificate(enum) == "a 1-face of 2-cell 0 was not enumerated"
    # the oracle refuses the cell set too
    with pytest.raises(ValueError, match="not closed under composition"):
        lambda_of_enumerated(enum)


def with_atom_replaced(enum, atom, table):
    """``enum`` with one atom swapped for another table in place, keeping
    its position, its name and the index, whose code for that position is
    swapped too: the certificate reads codes."""
    k = enum.cells[atom.dim].index(atom)
    cells = dict(enum.cells)
    cells[atom.dim] = cells[atom.dim][:k] + (table,) + cells[atom.dim][k + 1:]
    names = {(table if t == atom else t): n for t, n in enum.atom_names.items()}
    broken = EnumeratedOmegaCat(complex=enum.complex, max_dim=enum.max_dim,
                                cells=cells, atom_names=names)
    broken.index = enum.index
    broken.index.codes[atom.dim][k] = enum.index.rows.encode(table.rows)
    return broken, k


def test_a_boundary_that_misses_the_faces_is_caught():
    complex_ = build("oriental", (2,)).as_adc()
    # source and target of the atom 01 swapped: its faces are still
    # enumerated 0-cells, but its boundary points the other way
    a01 = atom_to_table(complex_, "01")
    (neg, pos), top = a01.rows
    broken, k = with_atom_replaced(enumerate_nu(complex_), a01,
                                   nu.NuTable(rows=((pos, neg), top)))
    assert top_row_certificate(broken) == \
        "the boundary of the top row of 1-cell %d is not the difference of its faces" % k


def test_two_different_top_entries_are_caught():
    complex_ = build("oriental", (2,)).as_adc()
    a01 = atom_to_table(complex_, "01")
    (bottom, (_, top)) = a01.rows
    broken, k = with_atom_replaced(enumerate_nu(complex_), a01,
                                   nu.NuTable(rows=(bottom, (ZERO, top))))
    assert top_row_certificate(broken) == \
        "the top row of 1-cell %d disagrees with its provenance" % k


def test_a_provenance_that_is_not_earlier_is_caught():
    complex_ = build("oriental", (2,)).as_adc()
    enum = enumerate_nu(complex_)
    provenance = enum.index.provenance[1]
    k = next(k for k, origin in enumerate(provenance)
             if origin is not None and len(origin) == 3)
    provenance[k] = (0, k, k)
    assert top_row_certificate(enum) == "1-cell %d is composed of cells not filed before it" % k


def interval_index():
    """The index of the interval 0 -> 1, whose 1-cells are the atom 01 at 0
    and the identities of the vertices 0 and 1 at 1 and 2, to edit by hand."""
    enum = enumerate_nu(build("oriental", (1,)).as_adc())
    assert enum.index.provenance == {0: [None, None], 1: [None, (0,), (1,)]}
    return enum


def test_an_identity_in_degree_0_is_caught():
    enum = interval_index()
    enum.index.provenance[0][0] = (0,)
    assert top_row_certificate(enum) == "0-cell 0 is the identity of no filed cell"


@pytest.mark.parametrize("t", [2, 5, -1])
def test_an_identity_of_a_position_out_of_range_is_caught(t):
    enum = interval_index()
    enum.index.provenance[1][2] = (t,)
    assert top_row_certificate(enum) == "1-cell 2 is the identity of no filed cell"


@pytest.mark.parametrize("origin", [(0, -1, -1), (0, 1, -1), (0, -2, 1)])
def test_a_negative_composite_position_is_caught(origin):
    # -1 and -2 would wrap to the identities at 2 and 1: a sum of zero top
    # rows and face differences, which the identity at 2 agrees with
    enum = interval_index()
    enum.index.provenance[1][2] = origin
    assert top_row_certificate(enum) == "1-cell 2 is composed of cells not filed before it"


@pytest.mark.parametrize("origin", [(0, 1), (0, 1, 2, 3), ()])
def test_a_provenance_of_the_wrong_length_is_caught(origin):
    enum = interval_index()
    enum.index.provenance[1][2] = origin
    assert top_row_certificate(enum) == \
        "1-cell 2 has a provenance that is no seed, identity or composite"


def test_a_vertex_of_augmentation_other_than_one_is_caught():
    interval = build("oriental", (1,)).as_adc()
    enum = enumerate_nu(interval)
    enum.complex = Adc(interval.basis, {"01": interval.diff("01")}, {"0": 2, "1": 1})
    assert top_row_certificate(enum) == "0-cell 0 has augmentation 2"


# ---------------------------------------------------------------------------
# the pair record, read off the codes on first read

def eagerly_recorded(complex_, monkeypatch, **caps):
    """enumerate_nu with the pair record filed as each pair is composed,
    by the reference closure, which composes the unit pairs too."""
    monkeypatch.setattr(nu, "_close", partial(reference_close, record=True))
    try:
        return enumerate_nu(complex_, **caps)
    finally:
        monkeypatch.undo()


@pytest.mark.parametrize("complex_", complexes())
def test_the_record_built_on_demand_is_the_eager_one(complex_, monkeypatch):
    try:
        eager = eagerly_recorded(complex_, monkeypatch, max_cells=3000)
    except (EnumerationCapExceeded, ValueError):
        return
    enum = enumerate_nu(complex_, max_cells=3000)
    assert "products" not in vars(enum.index)  # nothing filed yet
    assert enum.index.codes == eager.index.codes
    assert enum.index.provenance == eager.index.provenance
    assert enum.index.products == eager.index.products
    assert enum.cells == eager.cells
    assert decoded_positions(enum.index) == decoded_positions(eager.index)
    # the scan touches neither the codes nor the provenance
    assert enum.index.codes == eager.index.codes
    assert enum.index.provenance == eager.index.provenance


def test_a_confined_index_records_none_for_a_missing_composite():
    complex_ = build("oriental", (2,)).as_adc()
    enum = enumerate_nu(complex_)
    a01, a12 = atom_to_table(complex_, "01"), atom_to_table(complex_, "12")
    composite = compose(a01, a12, 0)
    cells = dict(enum.cells)
    cells[1] = tuple(t for t in cells[1] if t != composite)
    holed = EnumeratedOmegaCat(complex=complex_, max_dim=enum.max_dim, cells=cells)
    position = {t: i for i, t in enumerate(cells[1])}
    key = (0, position[a01], position[a12])
    assert holed.index.products[1][key] is None
    assert composite not in holed
    assert decoded_positions(holed.index)[1] == position


def test_a_repeated_top_row_over_faces_it_does_not_join_is_caught():
    # a late 2-cell made over to top row 0, like the identities before it,
    # but with the 1-faces 02 and 01 12, whose difference is not 0: the
    # boundary is checked per top row and faces, not per top row alone
    complex_ = build("oriental", (2,)).as_adc()
    enum = enumerate_nu(complex_)
    index, rows = enum.index, enum.index.rows
    flat = [k for k, code in enumerate(index.codes[2]) if code[-1] == 0]
    first, k = flat[0], flat[-1]
    a02 = atom_to_table(complex_, "02")
    path = compose(atom_to_table(complex_, "01"), atom_to_table(complex_, "12"), 0)
    index.codes[2][k] = rows.encode(
        (a02.rows[0], (a02.rows[1][0], path.rows[1][0]), (ZERO, ZERO)))
    index.provenance[2][k] = (0, first, first)
    assert first < k
    assert top_row_certificate(enum) == \
        "the boundary of the top row of 2-cell %d is not the difference of its faces" % k
