"""Rows packed into ints: the coder, the closure on it, and its edges.

``nu.PackedRows`` gives each generator a slot of ``width`` bits in its
degree, so a row is one int and a sum of filed rows is one addition.  The
closure runs on those codes; ``conftest.table_close`` runs the same loop on
tables, with ``table.compose``, and decoding the packed closure must give
its cells, positions and provenance.  The coefficient cap is one added bias
and one AND per row, and its message reports the unpacked peak; a sum past
the 64-bit range still overflows.  Rows outside the positive cone are
refused: no cell has a negative entry.
"""

import json
import random

import pytest

from conftest import attached_complex, largest_coeff, table_close
from polyadc import (
    EnumeratedOmegaCat,
    EnumerationCapExceeded,
    IntVector,
    NuTable,
    atom_to_table,
    build,
    cli,
    enumerate_nu,
)
from polyadc import nu
from polyadc.zlin import INT64_MAX, CoefficientOverflow


def packed(rows, p, vec):
    """The packed degree-p row of ``vec``, or None when it does not pack."""
    zero = IntVector()
    code = rows.encode(((zero, zero),) * p + ((vec, vec),))
    return None if code is None else code[-1]


def entries(rows, n, row):
    """The n slots of a packed row, lowest first, as plain ints."""
    mask = (1 << rows.width) - 1
    return [row >> i * rows.width & mask for i in range(n)]


# ---------------------------------------------------------------------------
# the coder

@pytest.mark.parametrize("limit", [0, 1, 2, 5, 6, 8, 100, 2**62, INT64_MAX])
def test_sums_of_filed_rows_carry_into_no_slot(limit):
    rng = random.Random(limit)
    names = ["g%d" % i for i in range(7)]
    rows = nu.PackedRows([names], limit)
    assert rows.width == (3 * limit | 1).bit_length()
    for _ in range(200):
        values = [[rng.choice((0, limit, rng.randint(0, limit))) for _ in names]
                  for _ in range(3)]
        codes = [packed(rows, 0, IntVector(zip(names, v))) for v in values]
        assert None not in codes
        # up to three filed rows add slot by slot
        assert entries(rows, 7, sum(codes)) == [sum(c) for c in zip(*values)]
        # the guard bit of a slot is set after the bias exactly when the
        # entry of a sum of two is above the limit
        over = any(a + b > limit for a, b in zip(values[0], values[1]))
        assert bool((codes[0] + codes[1] + rows.bias) & rows.guard) == over
        assert rows.unpack(0, codes[0]) == IntVector(zip(names, values[0]))


def test_a_row_off_the_slots_does_not_pack():
    rows = nu.PackedRows([["a", "b"], ["e"]], 8)
    assert packed(rows, 0, IntVector({"a": 8, "b": 1})) == 8 + (1 << rows.width)
    assert packed(rows, 0, IntVector({"a": 9})) is None  # above the limit
    assert packed(rows, 0, IntVector({"a": -1})) is None  # outside the cone
    assert packed(rows, 0, IntVector({"e": 1})) is None  # a generator of degree 1
    assert packed(rows, 0, IntVector({"far": 1})) is None
    assert rows.encode(((IntVector(),) * 2,) * 3) is None  # no degree 2
    assert rows.decode((1, 2, 0, 0)) == NuTable(rows=(
        (IntVector({"a": 1}), IntVector({"a": 2})), (IntVector(), IntVector())))


def test_unpacking_past_the_64_bit_range_overflows():
    rows = nu.PackedRows([["a", "b"]], INT64_MAX)
    big = packed(rows, 0, IntVector({"a": 1, "b": INT64_MAX}))
    assert rows.unpack(0, big) == IntVector({"a": 1, "b": INT64_MAX})
    with pytest.raises(CoefficientOverflow, match="coefficient %d exceeds" % (2 * INT64_MAX)):
        rows.unpack(0, 2 * big)


# ---------------------------------------------------------------------------
# the packed closure against the table closure

CATALOG = (
    [("oriental", (n,)) for n in range(5)]
    + [("disk", (n,)) for n in range(6)]
    + [("sphere", (n,)) for n in range(-1, 5)]
    + [("ordinal", (m,)) for m in range(4)]
    + [("theta2", (3, 2, 0, 1)), ("theta2", (1, 2)), ("theta2", (2, 1, 1)),
       ("theta2", (3, 2, 2, 2))]
    + [(name, ()) for name in ("loop", "endo2cell", "square", "forestA")]
)


def capped(max_cells, max_coeff):
    """``admit`` for the table closure with enumerate_nu's caps and
    messages."""
    counts = {}

    def admit(table):
        total = sum(counts.values())
        if largest_coeff(table) > max_coeff:
            raise EnumerationCapExceeded(
                "coefficient %d above %d in a %d-cell (after %d cells); raise --max-coeff"
                % (largest_coeff(table), max_coeff, table.dim, total))
        if total == max_cells:
            raise EnumerationCapExceeded(
                "more than %d cells (degree %d had reached %d); raise --max-cells"
                % (max_cells, table.dim, counts.get(table.dim, 0)))
        counts[table.dim] = counts.get(table.dim, 0) + 1
        return True
    return admit


def assert_packed_is_the_table_closure(complex_, max_cells=3000, max_coeff=8):
    """True when the closure finished under the caps, False when both
    stopped at a cap with the same message, None when the complex is not
    unital enough to enumerate."""
    try:
        enum = enumerate_nu(complex_, max_cells=max_cells, max_coeff=max_coeff)
    except ValueError:
        return None
    except EnumerationCapExceeded as exc:
        enum = exc
    atoms = [atom_to_table(complex_, n) for n in complex_.all_generators()]
    try:
        cells, provenance = table_close(atoms, complex_.max_degree,
                                        capped(max_cells, max_coeff))
    except EnumerationCapExceeded as exc:
        assert str(enum) == str(exc)
        return False
    assert {q: list(tables) for q, tables in enum.cells.items() if tables} == cells
    assert enum.index.provenance == provenance
    rows = enum.index.rows
    for q, tables in cells.items():
        assert [rows.decode(code) for code in enum.index.codes[q]] == tables
        assert all(t in enum for t in tables)
    return True


@pytest.mark.parametrize("name, params", CATALOG,
                         ids=["%s%s" % (n, "".join("-%d" % x for x in p)) for n, p in CATALOG])
def test_the_packed_closure_is_the_table_closure_on_the_catalog(name, params):
    complex_ = build(name, params).as_adc()
    # only the loop's closure is infinite, and stops at the cap
    assert (assert_packed_is_the_table_closure(complex_) is False) == (name == "loop")
    # tight caps stop both at the same cell, with the same message
    assert_packed_is_the_table_closure(complex_, max_cells=7)
    assert_packed_is_the_table_closure(complex_, max_coeff=1)


@pytest.mark.parametrize("acyclic, top_dim, finished", [(True, 5, 100), (False, 4, 10)],
                         ids=["acyclic", "either-way"])
def test_the_packed_closure_is_the_table_closure_on_attached_complexes(acyclic, top_dim,
                                                                        finished):
    # edges either way close loops, so most of those closures stop at the
    # cell cap, where the two must stop alike
    outcomes = [assert_packed_is_the_table_closure(attached_complex(seed, top_dim,
                                                                    acyclic=acyclic))
                for seed in range(100 if acyclic else 60)]
    assert outcomes.count(True) == finished


# ---------------------------------------------------------------------------
# refusals: the cone, the cap and the 64-bit range

def test_a_hand_built_row_with_a_negative_entry_is_refused():
    # packing is linear and one to one on the positive cone only, so a
    # hand-built cell set or closure seed outside it is refused, not packed
    complex_ = build("oriental", (1,)).as_adc()
    enum = enumerate_nu(complex_)
    (neg, pos), top = enum.cells[1][0].rows
    signed = NuTable(rows=((neg, pos), (top[0], -top[1])))
    cells = dict(enum.cells)
    cells[1] = cells[1] + (signed,)
    built = EnumeratedOmegaCat(complex=complex_, max_dim=1, cells=cells)
    message = "a seed table has a negative entry, and no cell has one"
    with pytest.raises(ValueError, match=message):
        built.index
    with pytest.raises(ValueError, match=message):
        nu.close_under_composition([signed], 1, lambda table: True)
    # it is no member either: nothing packs it
    assert signed not in enum


def adc_document(tmp_path, boundaries):
    """x -e-> y, f -> y, g: y -> x and f2: x -> y, with the 2-generators given."""
    gens = [{"name": "x", "dim": 0, "augmentation": 1},
            {"name": "y", "dim": 0, "augmentation": 1}]
    gens += [{"name": name, "dim": 1, "boundary": {a: -1, b: 1}}
             for name, a, b in (("e", "x", "y"), ("f", "x", "y"), ("g", "y", "x"),
                                ("f2", "x", "y"))]
    gens += [{"name": name, "dim": 2, "boundary": boundary}
             for name, boundary in boundaries.items()]
    doc = tmp_path / "complex.json"
    doc.write_text(json.dumps({"kind": "adc", "generators": gens}))
    return str(doc)


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_an_atom_above_the_coefficient_cap_exits_5(capsys, tmp_path):
    # the 2-generator s runs from f2 to 3e + 3g + f, a valid atom with a 3
    doc = adc_document(tmp_path, {"s": {"e": 3, "g": 3, "f": 1, "f2": -1}})
    assert run(["enumerate", doc, "--max-coeff", "2"], capsys) == (
        5, "", "resource error [ENUM_CAP]: coefficient 3 above 2 in a 2-cell "
               "(after 6 cells); raise --max-coeff\n")
    # at 3 the atom passes, and the loop e g, composed in degree 1 before
    # any 2-cell is, reaches 4 first
    assert run(["enumerate", doc, "--max-coeff", "3"], capsys) == (
        5, "", "resource error [ENUM_CAP]: coefficient 4 above 3 in a 1-cell "
               "(after 45 cells); raise --max-coeff\n")


def test_a_composite_above_the_coefficient_cap_exits_5(capsys, tmp_path):
    # the loop e g composes to e + g, then to 2e + g, and so on
    doc = adc_document(tmp_path, {})
    assert run(["enumerate", doc, "--max-coeff", "1"], capsys) == (
        5, "", "resource error [ENUM_CAP]: coefficient 2 above 1 in a 1-cell "
               "(after 15 cells); raise --max-coeff\n")


def test_a_row_sum_past_64_bits_overflows_at_any_coefficient_cap(capsys, tmp_path,
                                                                 monkeypatch):
    # the atom s has 2**62 twice in row 1; composed with the edge g and
    # with itself, a row sum reaches 2**63, past the checked range, at any
    # cap from 2**63 - 1 up; the cap stops the closure below that
    doc = adc_document(tmp_path, {"s": {"e": 2**62, "g": 2**62, "f": 1, "f2": -1}})
    # the loop e g makes degree 1 infinite, and degree 1 is closed before any
    # 2-cell is composed, so the closure stops at the cell cap there, however
    # high --max-cells goes; the atom itself is refused below 2**62
    for cap in (2**63 - 1, 2**63, 2**70, 2**62):
        assert run(["enumerate", doc, "--max-coeff", str(cap)], capsys) == (
            5, "", "resource error [ENUM_CAP]: more than 10000 cells (degree 1 had "
                   "reached 9997); raise --max-cells\n")
    assert run(["enumerate", doc, "--max-coeff", str(2**62 - 1)], capsys) == (
        5, "", "resource error [ENUM_CAP]: coefficient %d above %d in a 2-cell "
               "(after 6 cells); raise --max-coeff\n" % (2**62, 2**62 - 1))
    # with degree 1 confined to its atoms and identities, degree 2 is reached
    real = nu._close

    def confined(rows, seeds, max_dim, admit):
        seeds = list(seeds)
        return real(rows, seeds, max_dim, lambda q, code: (
            q != 1 or code in seeds or rows.is_unit(code)) and admit(q, code))

    monkeypatch.setattr(nu, "_close", confined)
    for cap in (2**63 - 1, 2**63, 2**70):
        assert run(["enumerate", doc, "--max-coeff", str(cap)], capsys) == (
            5, "", "resource error [OVERFLOW]: coefficient %d exceeds the checked "
                   "64-bit range\n" % 2**63)
    assert run(["enumerate", doc, "--max-coeff", str(2**62)], capsys) == (
        5, "", "resource error [ENUM_CAP]: coefficient %d above %d in a 2-cell "
               "(after 15 cells); raise --max-coeff\n" % (2**62 + 1, 2**62))
