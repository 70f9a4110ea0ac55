"""The composition index against the all-pairs scans it replaced.

The reference functions below are the nested ``composable`` loops that the
index replaced in the enumeration, the relation listing, the
indecomposables and the generation check.  The indexed code must reproduce
them exactly: the same cells in the same discovery order, the same
relation list and therefore the same projections and sections, and the
same verdicts.  The pair record that the index reads off its codes must
list every composable pair of the all-pairs scan.  The closure composes
each pair once, except the unit pairs (an identity with a cell along the
identity's top face), which it skips: each of those composes to its other
factor, and the index, its pair record included, must equal the one that
the closure composing them too (``conftest.reference_close``) builds and
records as it goes.
"""

from collections import deque
from functools import partial

import pytest

from conftest import catalog_presentations, random_presentation, reference_close
from polyadc import (
    EnumerationCapExceeded,
    IntVector,
    atom_to_table,
    brute_force_nu,
    build,
    check_omega_basis,
    compose,
    composable,
    enumerate_nu,
    identity,
    indecomposables,
    is_unital,
    is_valid_table,
    lambda_of_enumerated,
    lambda_presentation,
    quotient_free_basis,
)
from polyadc import nu, roundtrip, verify_equivalence


def reference_closure(seeds, max_dim, admit, origins=None):
    """Tables per dimension in discovery order, by the all-pairs closure.

    Given a dict, ``origins`` receives what first made each admitted table:
    None for a seed, ``(t,)`` for ``identity(t)`` and ``(p, x, y)`` for
    ``compose(x, y, p)``."""
    cells = {}
    queue = deque()
    if origins is None:
        origins = {}

    def add(table, origin):
        bucket = cells.setdefault(table.dim, {})
        if table not in bucket and admit(table):
            bucket[table] = None
            origins[table] = origin
            queue.append(table)

    for table in seeds:
        add(table, None)
    while queue:
        t = queue.popleft()
        if t.dim < max_dim:
            add(identity(t), (t,))
        for u in list(cells[t.dim]):
            for p in range(t.dim):
                if composable(t, u, p):
                    add(compose(t, u, p), (p, t, u))
                if u is not t and composable(u, t, p):
                    add(compose(u, t, p), (p, u, t))
    return cells


def reference_enumerate(complex_, max_dim=None, max_cells=10000, max_coeff=8):
    if max_dim is None:
        max_dim = complex_.max_degree
    counts = {}

    def atoms():
        for q in range(min(max_dim, complex_.max_degree) + 1):
            for name in complex_.generators(q):
                table = atom_to_table(complex_, name)
                ok, cond = is_valid_table(complex_, table)
                if not ok:
                    raise ValueError(
                        "atom table of %r violates cell condition %d; "
                        "the complex is not unital enough to enumerate" % (name, cond))
                yield table

    def admit(table):
        total = sum(counts.values())
        if table.max_coeff() > max_coeff:
            raise EnumerationCapExceeded(
                "coefficient %d above %d in a %d-cell (after %d cells); raise --max-coeff"
                % (table.max_coeff(), max_coeff, table.dim, total))
        if total == max_cells:
            raise EnumerationCapExceeded(
                "more than %d cells (degree %d had reached %d); raise --max-cells"
                % (max_cells, table.dim, counts.get(table.dim, 0)))
        counts[table.dim] = counts.get(table.dim, 0) + 1
        return True

    cells = reference_closure(atoms(), max_dim, admit)
    return {q: tuple(cells.get(q, ())) for q in range(max_dim + 1)}


def reference_pairs(tables, q):
    """Composable pairs of one dimension: level, then left, then right."""
    return [(p, x, y) for p in range(q) for x in tables for y in tables
            if composable(x, y, p)]


def is_unit(table):
    """An identity cell: a zero top row over an equal pair in the row below."""
    return (table.dim >= 1 and table.is_trivial()
            and table.rows[-2][0] == table.rows[-2][1])


def reference_indecomposables(enum):
    out = {}
    for q in range(enum.max_dim + 1):
        candidates = [t for t in enum.cells.get(q, ()) if not t.is_trivial()]
        split = {compose(x, y, p) for p, x, y in reference_pairs(candidates, q)}
        out[q] = tuple(t for t in candidates if t not in split)
    return out


def reference_record(enum):
    """The products and identity links among the cells, by position, from
    the all-pairs scan; a composite outside the cells is None."""
    products, identities = {}, {}
    for q, tables in enum.cells.items():
        position = {t: i for i, t in enumerate(tables)}
        above = {t: i for i, t in enumerate(enum.cells.get(q + 1, ()))}
        filed = {(p, position[x], position[y]): position.get(compose(x, y, p))
                 for p, x, y in reference_pairs(tables, q)}
        links = {i: above[identity(t)] for i, t in enumerate(tables)
                 if q < enum.max_dim and identity(t) in above}
        if filed:
            products[q] = filed
        if links:
            identities[q] = links
    return products, identities


def recorded(enum):
    return ({q: filed for q, filed in enum.index.products.items() if filed},
            {q: links for q, links in enum.index.identities.items() if links})


def reference_missing(enum, candidates):
    """Per dimension, how many cells the candidates do not generate inside
    the cell set; composites outside the set are ignored."""
    closure = {q: set() for q in range(enum.max_dim + 1)}
    queue = []
    for t in candidates:
        if t not in closure[t.dim]:
            closure[t.dim].add(t)
            queue.append(t)
    while queue:
        t = queue.pop()
        made = [identity(t)] if t.dim < enum.max_dim else []
        for u in list(closure[t.dim]):
            for p in range(t.dim):
                for a, b in ((t, u), (u, t)):
                    if composable(a, b, p):
                        made.append(compose(a, b, p))
        for c in made:
            if c in enum and c not in closure[c.dim]:
                closure[c.dim].add(c)
                queue.append(c)
    return {q: len(enum.cell_set(q) - closure[q]) for q in range(enum.max_dim + 1)}


def outcome(fn, *args, **kwargs):
    """The result of a call, or the type and message of what it raised."""
    try:
        return fn(*args, **kwargs)
    except (EnumerationCapExceeded, ValueError) as exc:
        return type(exc), str(exc)


CATALOG = (
    [("oriental", (n,)) for n in range(4)]
    + [("disk", (n,)) for n in range(5)]
    + [("sphere", (n,)) for n in range(-1, 4)]
    + [("ordinal", (m,)) for m in range(4)]
    + [("theta2", (3, 2, 0, 1)), ("theta2", (1, 2)), ("theta2", (2, 1, 1))]
    + [(name, ()) for name in ("loop", "endo2cell", "square", "forestA")]
)


def random_complexes():
    return [pytest.param(lambda_presentation(random_presentation(seed)),
                         id="random%d" % seed)
            for seed in range(60)]


def assert_same_as_reference(complex_, **caps):
    want = outcome(reference_enumerate, complex_, **caps)
    enum = outcome(enumerate_nu, complex_, **caps)
    if isinstance(want, tuple):
        assert enum == want
        return None
    assert enum.cells == want
    record = reference_record(enum)
    assert recorded(enum) == record
    rebuilt = nu.EnumeratedOmegaCat(complex=complex_, max_dim=enum.max_dim,
                                    cells=enum.cells)
    assert recorded(rebuilt) == record
    assert indecomposables(enum) == reference_indecomposables(enum)
    return enum


def reference_relations(enum, q):
    tables = enum.cells[q]
    name_of = {t: "c%d_%d" % (q, i) for i, t in enumerate(tables)}
    return [IntVector.unit(name_of[compose(x, y, p)])
            - IntVector.unit(name_of[x]) - IntVector.unit(name_of[y])
            for p, x, y in reference_pairs(tables, q)]


def assert_same_quotient(enum, monkeypatch):
    """lambda_of_enumerated hands the quotient the all-pairs relation list,
    in its order, and gets the same projections and sections back."""
    seen = {}
    real = roundtrip.quotient_free_basis

    def record(ambient, relations, name_prefix):
        seen[name_prefix] = list(relations)
        return real(ambient, relations, name_prefix=name_prefix)

    monkeypatch.setattr(roundtrip, "quotient_free_basis", record)
    quotient = outcome(lambda_of_enumerated, enum)
    monkeypatch.undo()
    for q in range(enum.max_dim + 1):
        relations = reference_relations(enum, q)
        assert seen["q%d_" % q] == relations
        if not isinstance(quotient, tuple):
            ambient = ["c%d_%d" % (q, i) for i in range(len(enum.cells[q]))]
            want = quotient_free_basis(ambient, relations, name_prefix="q%d_" % q)
            assert quotient.projections[q] == want.projection
            assert quotient.sections[q] == want.section
    return quotient


def generation_detail(missing):
    """The detail of a generation failure for per-dimension missing counts."""
    for q, n in sorted(missing.items()):
        if n:
            return "%d of the %d-cells are not generated" % (n, q)
    return None


def assert_same_generation(enum, families, quotient):
    for candidates in families:
        report = check_omega_basis(enum, candidates, quotient)
        found = report.detail if report.failed == "generation" else None
        assert found == generation_detail(reference_missing(enum, candidates))


def assert_same_quotient_and_generation(complex_, enum, monkeypatch):
    quotient = assert_same_quotient(enum, monkeypatch)
    if not isinstance(quotient, tuple):
        families = [c for c, _ in basis_cases(complex_, enum)]
        assert_same_generation(enum, families, quotient)


class Enough(Exception):
    pass


def first_admitted(close, complex_, limit=60):
    """The first tables a closure of the atoms admits, with no caps."""
    seen = []

    def admit(table):
        seen.append(table)
        if len(seen) == limit:
            raise Enough
        return True

    seeds = [atom_to_table(complex_, name) for name in complex_.all_generators()]
    try:
        close(seeds, complex_.max_degree + 1, admit)
    except Enough:
        pass
    return seen


@pytest.mark.parametrize("name, params", [
    pytest.param(name, params, id=name + "".join("-%d" % x for x in params))
    for name, params in CATALOG
])
def test_catalog_matches_the_all_pairs_scans(name, params, monkeypatch):
    complex_ = build(name, params).as_adc()
    enum = assert_same_as_reference(complex_)
    if enum is not None:
        assert_same_quotient_and_generation(complex_, enum, monkeypatch)
    # tight caps stop both at the same cell
    assert_same_as_reference(complex_, max_cells=7)
    assert_same_as_reference(complex_, max_dim=complex_.max_degree + 1, max_coeff=2)
    # cycles make the closure infinite, so its order is compared up to a cap
    assert first_admitted(nu.close_under_composition, complex_) == \
        first_admitted(reference_closure, complex_)


@pytest.mark.parametrize("complex_", random_complexes())
def test_random_presentations_match_the_all_pairs_scans(complex_, monkeypatch):
    enum = assert_same_as_reference(complex_, max_cells=3000)
    if enum is not None:
        assert_same_quotient_and_generation(complex_, enum, monkeypatch)
    assert first_admitted(nu.close_under_composition, complex_) == \
        first_admitted(reference_closure, complex_)


def basis_cases(complex_, enum):
    """Candidate families for the basis check with their expected verdicts."""
    atoms = [atom_to_table(complex_, n) for n in complex_.all_generators()]
    cases = [(atoms, None)]
    top = complex_.generators(complex_.max_degree)
    if top:
        dropped = atom_to_table(complex_, top[-1])
        cases.append(([t for t in atoms if t != dropped], "generation"))
    if complex_.max_degree >= 1:
        vertex = atom_to_table(complex_, complex_.generators(0)[0])
        cases.append((atoms + [identity(vertex), identity(vertex)], "injectivity"))
    composites = [compose(x, y, p) for q in range(1, enum.max_dim + 1)
                  for p, x, y in reference_pairs(enum.nontrivial(q), q)]
    if composites:
        cases.append((atoms + composites[:1], "z-basis"))
    return cases


@pytest.mark.parametrize("name, params", [
    ("oriental", (2,)), ("oriental", (3,)), ("disk", (3,)), ("sphere", (2,)),
    ("theta2", (3, 2, 0, 1)),
])
def test_basis_verdicts_are_unchanged(name, params):
    complex_ = build(name, params).as_adc()
    enum = enumerate_nu(complex_)
    quotient = lambda_of_enumerated(enum)
    for candidates, failed in basis_cases(complex_, enum):
        report = check_omega_basis(enum, candidates, quotient)
        assert report.failed == failed
        missing = reference_missing(enum, candidates)
        if failed == "generation":
            q = min(q for q, n in missing.items() if n)
            assert report.detail == "%d of the %d-cells are not generated" % (missing[q], q)
        else:
            assert not any(missing.values())


def reference_provenance(complex_, enum):
    """The provenance of the cells by position, from the all-pairs closure."""
    seeds = [atom_to_table(complex_, name) for q in range(enum.max_dim + 1)
             for name in complex_.generators(q)]
    origins = {}
    reference_closure(seeds, enum.max_dim, lambda table: True, origins)
    position = {t: k for tables in enum.cells.values() for k, t in enumerate(tables)}
    return {q: [None if origins[t] is None else
                tuple(x if isinstance(x, int) else position[x] for x in origins[t])
                for t in tables]
            for q, tables in enum.cells.items() if tables}


ORIENTAL_COUNTS = {4: (5, 31, 74, 90, 91), 5: (6, 63, 262, 439, 475, 476)}


@pytest.mark.parametrize("n", sorted(ORIENTAL_COUNTS))
def test_oriental_cell_counts(n):
    enum = enumerate_nu(build("oriental", (n,)).as_adc())
    assert tuple(len(enum.cells[q]) for q in range(n + 1)) == ORIENTAL_COUNTS[n]


def test_oriental_4_matches_the_all_pairs_closure():
    complex_ = build("oriental", (4,)).as_adc()
    enum = assert_same_as_reference(complex_)
    assert enum.index.provenance == reference_provenance(complex_, enum)
    assert_same_as_reference(complex_, max_cells=40)
    assert_same_as_reference(complex_, max_coeff=1)
    assert first_admitted(nu.close_under_composition, complex_, limit=300) == \
        first_admitted(reference_closure, complex_, limit=300)


def test_hand_built_category_gets_an_index():
    k = build("oriental", (2,)).as_adc()
    enum = enumerate_nu(k, max_coeff=2)
    rebuilt = nu.EnumeratedOmegaCat(complex=k, max_dim=enum.max_dim, cells=enum.cells)
    assert rebuilt.index.cells == enum.index.cells
    for q in range(1, enum.max_dim + 1):
        tables = enum.cells[q]
        filed = sorted(rebuilt.index.products[q])
        for i, x in enumerate(tables):
            for p in range(q):
                want = [y for y in tables if composable(x, y, p)]
                assert [tables[j] for level, k, j in filed if (level, k) == (p, i)] == want
                assert [tables[k] for level, k, j in filed if (level, j) == (p, i)] == \
                    [y for y in tables if composable(y, x, p)]
    assert lambda_of_enumerated(rebuilt).projections == \
        lambda_of_enumerated(enum).projections


def test_layered_enumeration_equals_brute_force_on_random_unital_complexes():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=60, deadline=None,
                         suppress_health_check=[hypothesis.HealthCheck.filter_too_much])
    @hypothesis.given(st.integers(min_value=0, max_value=2**32 - 1))
    def prop(seed):
        complex_ = lambda_presentation(random_presentation(seed))
        hypothesis.assume(is_unital(complex_))
        try:
            enum = enumerate_nu(complex_, max_coeff=2, max_cells=2000)
        except EnumerationCapExceeded:
            hypothesis.reject()
        for q in range(complex_.max_degree + 1):
            assert enum.cell_set(q) == set(brute_force_nu(complex_, q, 2))

    prop()


@pytest.mark.parametrize("name, params", [
    ("oriental", (3,)), ("disk", (4,)), ("sphere", (3,)), ("theta2", (3, 2, 0, 1)),
    ("theta2", (2, 2, 3)),
])
def test_verify_equivalence_composes_each_pair_once(name, params, monkeypatch):
    """Every composable pair but the unit pairs is composed exactly once,
    and no unit pair is composed."""
    complex_ = build(name, params).as_adc()
    calls = []
    real = nu.RowCodes.compose

    def counting(self, x, y, p):
        calls.append((self.decode(x), self.decode(y), p))
        return real(self, x, y, p)

    monkeypatch.setattr(nu.RowCodes, "compose", counting)
    assert verify_equivalence(complex_).ok
    monkeypatch.undo()
    enum = enumerate_nu(complex_)
    pairs = {(x, y, p) for q, tables in enum.cells.items()
             for p, x, y in reference_pairs(tables, q)}
    units = {(x, y, p) for x, y, p in pairs
             if p == x.dim - 1 and (is_unit(x) or is_unit(y))}
    assert units  # every input has identities to pad with
    assert len(calls) == len(pairs - units)
    assert set(calls) == pairs - units


def test_a_cell_set_not_closed_under_composition_is_refused():
    complex_ = build("oriental", (2,)).as_adc()
    enum = enumerate_nu(complex_)
    quotient = lambda_of_enumerated(enum)
    p, x, y = reference_pairs(enum.nontrivial(1), 1)[0]
    composite = compose(x, y, p)
    cells = dict(enum.cells)
    cells[1] = tuple(t for t in cells[1] if t != composite)
    holed = nu.EnumeratedOmegaCat(complex=complex_, max_dim=enum.max_dim, cells=cells)
    assert recorded(holed) == reference_record(holed)
    with pytest.raises(ValueError, match="a composite of two enumerated 1-cells was "
                                         "not enumerated; the cell set is not closed "
                                         "under composition"):
        lambda_of_enumerated(holed)
    assert indecomposables(holed) == reference_indecomposables(holed)
    # generation runs before the quotient is read, and ignores the missing
    # composite as the closure confined to the cells did
    families = [c for c, _ in basis_cases(complex_, enum)
                if all(t in holed for t in c)]
    assert len(families) == 3
    assert_same_generation(holed, families, quotient)


def test_table_hash_is_kept_and_plays_no_part_in_equality_or_repr():
    complex_ = build("oriental", (2,)).as_adc()
    atom = atom_to_table(complex_, "01")
    vertex = atom_to_table(complex_, "0")
    padded = compose(identity(vertex), atom, 0)  # the same table, built anew
    rebuilt = nu.NuTable(rows=tuple(list(atom.rows)))
    assert padded is not atom and padded == atom == rebuilt
    assert padded._hash is None and rebuilt._hash is None
    assert hash(atom) == hash(padded) == hash(rebuilt) == hash(atom.rows)
    assert atom._hash is not None and rebuilt._hash is not None
    assert repr(atom) == repr(rebuilt) == "NuTable(dim=1, top=IntVector(+1*01))"
    # a table carrying a hash equals one that does not yet
    fresh = nu.NuTable(rows=atom.rows)
    assert fresh._hash is None and fresh == atom and atom == fresh
    assert {atom: 1}[fresh] == 1
    assert not hasattr(atom, "__dict__")


# ---------------------------------------------------------------------------
# the unit pairs the closure skips

def unit_pairs(enum):
    """Every composable pair (x, y, q - 1) of q-cells with a unit factor.

    A unit composes along the top face exactly with the cells whose face
    there is the cell it is the identity of, so the pairs are read off each
    cell's two top faces."""
    pairs = []
    for q in range(1, enum.max_dim + 1):
        for x in enum.cells.get(q, ()):
            before = identity(nu.face(x, q - 1, -1))
            after = identity(nu.face(x, q - 1, +1))
            if before in enum:
                pairs.append((before, x, q - 1))
            if after in enum:
                pairs.append((x, after, q - 1))
    return pairs


def assert_unit_pairs_give_the_partner(complex_, monkeypatch):
    """Each unit pair composes, as tables and as codes, to its other
    factor, and the closure composes none of them."""
    composed = []
    real = nu.RowCodes.compose

    def watching(self, x, y, p):
        composed.append((self, x, y, p))
        return real(self, x, y, p)

    monkeypatch.setattr(nu.RowCodes, "compose", watching)
    enum = outcome(enumerate_nu, complex_, max_cells=3000)
    monkeypatch.undo()
    formed = {(rows.decode(x), rows.decode(y), p) for rows, x, y, p in composed}
    if isinstance(enum, tuple):
        # refused or capped: what was composed up to then has no unit pair
        assert not any(p == x.dim - 1 and (is_unit(x) or is_unit(y))
                       for x, y, p in formed)
        return 0
    rows = enum.index.rows
    pairs = unit_pairs(enum)
    for x, y, p in pairs:
        partner = y if is_unit(x) else x
        assert compose(x, y, p) == partner
        assert rows.compose(rows.encode(x), rows.encode(y), p) == rows.encode(partner)
        assert (x, y, p) not in formed
    return len(pairs)


@pytest.mark.parametrize("pres", [pytest.param(pres, id="catalog%d" % k)
                                  for k, pres in enumerate(catalog_presentations())])
def test_a_unit_pair_composes_to_its_partner_on_the_catalog(pres, monkeypatch):
    assert_unit_pairs_give_the_partner(lambda_presentation(pres), monkeypatch)


def test_a_unit_pair_composes_to_its_partner_on_random_presentations(monkeypatch):
    pairs = sum(assert_unit_pairs_give_the_partner(
        lambda_presentation(random_presentation(seed)), monkeypatch)
        for seed in range(300))
    assert pairs  # most linearizations here are not unital, but some get this far


def test_a_zero_top_row_over_unequal_faces_is_composed():
    """A hand-built 1-cell with a zero top row from vertex 0 to vertex 1 is
    no unit: composing it with the atom 12 gives a table it is not, so the
    closure must file and compose it like any other cell."""
    complex_ = build("oriental", (2,)).as_adc()
    zero = IntVector()
    v0, v1 = (atom_to_table(complex_, name).rows[0][0] for name in ("0", "1"))
    flat = nu.NuTable(rows=((v0, v1), (zero, zero)))
    assert flat.is_trivial() and not is_unit(flat)
    a12 = atom_to_table(complex_, "12")
    seeds = [atom_to_table(complex_, name) for name in complex_.all_generators()]
    seeds.append(flat)
    index = nu.close_under_composition(seeds, 1, lambda table: True)
    made = compose(flat, a12, 0)
    assert made not in (flat, a12) and made in index
    want = reference_closure(seeds, 1, lambda table: True)
    assert {q: set(tables) for q, tables in want.items()} == \
        {q: set(index.tables(q)) for q in index.codes}


# ---------------------------------------------------------------------------
# the index against the closure that composed the unit pairs

def index_fields(enum):
    """What a closure leaves on the index, the pair record last, and the
    interned rows once the record has been filed."""
    if isinstance(enum, tuple):
        return enum
    index = enum.index
    fields = (index.codes, index.provenance, index.located, list(index.rows.vectors),
              index.products, index.identities)
    return fields + (list(index.rows.vectors),)


def sweep_complexes():
    out = [pytest.param(lambda_presentation(pres), id="catalog%d" % k)
           for k, pres in enumerate(catalog_presentations())]
    out += [pytest.param(build(name, params).as_adc(),
                         id=name + "".join("-%d" % x for x in params))
            for name, params in (("oriental", (4,)), ("disk", (4,)), ("sphere", (3,)),
                                 ("oriental", (5,)), ("theta2", (3, 2, 2, 2)),
                                 ("disk", (5,)), ("sphere", (4,)))]
    return out


def with_reference_close(monkeypatch, fn, *args):
    """``fn(*args)`` with the reference closure in place of the closure,
    filing the pair record itself as it composes."""
    monkeypatch.setattr(nu, "_close", partial(reference_close, record=True))
    try:
        return fn(*args)
    finally:
        monkeypatch.undo()


def assert_index_is_the_reference(complex_, monkeypatch):
    for caps in ({"max_cells": 3000}, {"max_cells": 7},
                 {"max_coeff": 1, "max_cells": 3000}):
        want = with_reference_close(
            monkeypatch, lambda: index_fields(outcome(enumerate_nu, complex_, **caps)))
        assert index_fields(outcome(enumerate_nu, complex_, **caps)) == want
        report = with_reference_close(
            monkeypatch, lambda: outcome(verify_equivalence, complex_, **caps))
        assert outcome(verify_equivalence, complex_, **caps) == report
    enum = outcome(enumerate_nu, complex_, max_cells=3000)
    if not isinstance(enum, tuple):
        def rebuilt():
            return index_fields(nu.EnumeratedOmegaCat(
                complex=complex_, max_dim=enum.max_dim, cells=enum.cells))
        assert rebuilt() == with_reference_close(monkeypatch, rebuilt)


@pytest.mark.parametrize("complex_", sweep_complexes())
def test_the_index_is_the_reference_closure_on_the_catalog(complex_, monkeypatch):
    assert_index_is_the_reference(complex_, monkeypatch)


def test_the_index_is_the_reference_closure_on_random_presentations(monkeypatch):
    for seed in range(300):
        assert_index_is_the_reference(lambda_presentation(random_presentation(seed)),
                                      monkeypatch)


def hand_built_fields(complex_, max_dim, cells, monkeypatch):
    def fields():
        return index_fields(nu.EnumeratedOmegaCat(complex=complex_, max_dim=max_dim,
                                                  cells=cells))
    got = fields()
    assert got == with_reference_close(monkeypatch, fields)
    return got


def test_the_record_of_cells_below_max_dim_is_the_reference_closure(monkeypatch):
    complex_ = build("oriental", (2,)).as_adc()
    enum = enumerate_nu(complex_)
    codes, _, located, _, products, identities, _ = hand_built_fields(
        complex_, 3, enum.cells, monkeypatch)
    # the identities of the 2-cells are offered in dim 3 and refused
    assert codes[3] == [] and located[3] == {}
    assert 3 not in products and 2 not in identities
    assert sorted(products) == [0, 1, 2] and sorted(identities) == [0, 1]


def test_the_record_of_a_holed_set_is_the_reference_closure(monkeypatch):
    complex_ = build("oriental", (2,)).as_adc()
    enum = enumerate_nu(complex_)
    composite = compose(atom_to_table(complex_, "01"), atom_to_table(complex_, "12"), 0)
    cells = dict(enum.cells)
    cells[1] = tuple(t for t in cells[1] if t != composite)
    products = hand_built_fields(complex_, enum.max_dim, cells, monkeypatch)[4]
    assert None in products[1].values()
