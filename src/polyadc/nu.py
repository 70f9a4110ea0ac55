"""The cells over an augmented directed complex, closed from its atoms.

The cells are the tables of :mod:`polyadc.table`, whose names this module
serves as well.  :func:`enumerate_nu` closes the atoms under composition
through one :class:`CompositionIndex`, and :func:`brute_force_nu` lists the
cells of one dimension from the cell conditions alone.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property
from itertools import product

from .adc import Adc, _atom, _require_chain_complex
# the table algebra is served here too: callers, tests and the benchmark's
# tracer read these names on this module
from .table import (NotComposable, NuTable, atom_to_table, composable,  # noqa: F401
                    compose, face, identity, is_valid_table)
from .zlin import IntVector, Record


class EnumerationCapExceeded(Exception):
    """Cell enumeration hit the cell-count or coefficient cap."""

    code = "ENUM_CAP"


# ---------------------------------------------------------------------------
# the composition index and the closure from the atoms

class CompositionIndex:
    """The cells a closure filed, by code, and the pair record read off them.

    ``rows`` is the closure's :class:`RowCodes`.  ``codes[dim]`` lists the
    code of each cell in insertion order and ``located[dim]`` maps each
    code to its position.  ``provenance[dim][pos]`` says how a cell first
    entered the index: None for a cell added as it stands (a seed),
    ``(pos t,)`` for the identity of the cell at ``pos t`` one dimension
    down, and ``(p, pos x, pos y)`` for ``compose(x, y, p)``.  A table is
    in the index when its code, read off ``rows`` without interning, is
    filed.

    The pair record is read off the filed codes on first read:
    ``products[dim][(p, pos x, pos y)]`` is the position of ``compose(x, y,
    p)``, or None when the composite is not indexed, for every composable
    pair of filed cells.  A dimension with no cells has no ``products``
    entry.
    """

    def __init__(self, rows: "RowCodes"):
        self.rows = rows
        self.codes = {}  # dim -> per position, the cell's code
        self.located = {}  # dim -> {code: position}
        self.provenance = {}  # dim -> per position, None, (pos t,) or (p, pos x, pos y)

    @cached_property
    def products(self) -> dict:  # dim -> {(p, pos x, pos y): pos of composite or None}
        # x composes with y at level p when x's p-target key is y's p-source
        # key; along the top face a unit gives its partner back (see _close)
        rows, products = self.rows, {}
        for q, coded in self.codes.items():
            if not coded:
                continue
            position = self.located[q]
            filed = products[q] = {}
            for p in range(q):
                k = 2 * p + 1
                by_source = {}
                for j, code in enumerate(coded):
                    by_source.setdefault(code[:k], []).append(j)
                units = ({j for j, code in enumerate(coded) if rows.is_unit(code)}
                         if p == q - 1 else ())
                for i, x in enumerate(coded):
                    for j in by_source.get(x[:k - 1] + (x[k],), ()):
                        filed[(p, i, j)] = (
                            i if j in units else j if i in units
                            else position.get(rows.compose(x, coded[j], p)))
        return products

    def __contains__(self, table: NuTable) -> bool:
        # a row never interned is in no filed code
        code = tuple(map(self.rows._ids.get, (vec for row in table.rows for vec in row)))
        return None not in code and code in self.located.get(table.dim, ())


class RowCodes:
    """The row vectors of one closure, each interned once to a small int.

    A q-cell is coded by the flat tuple ``(neg_0, pos_0, ..., neg_q,
    pos_q)`` of its rows' ids, so that cells and their faces hash and
    compare as tuples of ints, and two codes are equal exactly when their
    tables are.  ``peaks[id]`` is the largest absolute coefficient of the
    vector, recorded when it is interned, and ``zero`` is the id of the
    zero vector.  :meth:`compose` and :meth:`identity` are :func:`compose`
    and :func:`identity` on codes.  Row sums are memoized by the ids of
    their terms (:meth:`add`); each new sum goes through
    :meth:`IntVector.__add__` and its 64-bit check.
    """

    __slots__ = ("vectors", "peaks", "zero", "_ids", "_sums")

    def __init__(self):
        self.vectors = []  # id -> IntVector
        self.peaks = []  # id -> largest |coefficient|
        self._ids = {}  # IntVector -> id
        self._sums = []  # id a -> {id b: id of a + b}
        self.zero = self.intern(IntVector())

    def intern(self, vec: IntVector) -> int:
        i = self._ids.get(vec)
        if i is None:
            i = self._ids[vec] = len(self.vectors)
            self.vectors.append(vec)
            self.peaks.append(max(map(abs, vec._entries.values()), default=0))
            self._sums.append({})
        return i

    def encode(self, table: NuTable) -> tuple:
        return tuple(self.intern(vec) for row in table.rows for vec in row)

    def decode(self, code: tuple) -> NuTable:
        vectors = self.vectors
        pairs = iter(code)
        return NuTable(rows=tuple((vectors[a], vectors[b]) for a, b in zip(pairs, pairs)))

    def identity(self, code: tuple) -> tuple:
        return code + (self.zero, self.zero)

    def is_unit(self, code: tuple) -> bool:
        """Whether the code of a cell of positive dimension is that of a
        unit, the identity of a cell one dimension down: its top row is
        zero and the row below it an equal pair."""
        return code[-1] == code[-2] == self.zero and code[-3] == code[-4]

    def compose(self, x: tuple, y: tuple, p: int) -> tuple:
        """The code of ``compose(x, y, p)`` for codes x and y that the
        caller has matched along their p-face: x's rows below p, x's
        negative and y's positive row p, and the sums of the rows above."""
        k = 2 * p + 1
        above = tuple(map(dict.get, map(self._sums.__getitem__, x[k + 1:]), y[k + 1:]))
        if None in above:
            above = tuple(map(self.add, x[k + 1:], y[k + 1:]))
        return x[:k] + (y[k],) + above

    def add(self, a: int, b: int) -> int:
        """The id of the sum of the vectors with ids a and b."""
        with_a = self._sums[a]
        c = with_a.get(b)
        if c is None:
            c = with_a[b] = self.intern(self.vectors[a] + self.vectors[b])
        return c


def close_under_composition(seeds, max_dim: int, admit) -> CompositionIndex:
    """Close the seed tables under identities up to ``max_dim`` and
    composition.

    ``admit(table)`` is asked about each new table; False leaves it out and
    an exception stops the closure.  This is the table-level face of the
    one closure loop, which runs on codes (see :func:`_close`); each
    candidate is decoded to ask ``admit``.
    """
    rows = RowCodes()
    return _close(rows, map(rows.encode, seeds), max_dim,
                  lambda q, code: admit(rows.decode(code)))


def _close(rows: RowCodes, seeds, max_dim: int, admit) -> CompositionIndex:
    """The closure loop: close the seed codes under identities up to
    ``max_dim`` and composition, on the integer codes of ``rows``.

    ``admit(q, code)`` is asked about each new code of a q-cell; False
    leaves it out and an exception stops the closure.  The seeds are
    consumed one at a time, in order.  The composites of a dequeued ``t``
    are formed by the partner's insertion position, then p, then ``t`` on
    the left before ``t`` on the right, so the order depends on the seeds
    alone.

    Each composable pair, but the unit pairs below, is composed once, when
    the first of its two cells is dequeued if the other is indexed by then,
    else when the second is.  Each admitted cell's ``provenance`` is the
    seed, the identity or the pair that produced it first, so it names
    cells indexed before it and traces back to the seeds without a cycle.
    The index reads the pair record off the codes when it is asked for.

    Each cell is filed under its p-source ``code[:2p + 1]`` and its
    p-target ``code[:2p] + (code[2p + 1],)`` for every p below its
    dimension, so the partners of a cell are one lookup each and match by
    that very key.  A *unit* q-cell, whose code ends in the zero row over
    an equal pair in row q - 1 (the identity of a (q - 1)-cell), is the
    exception: it is neither filed under its level-(q - 1) keys nor looked
    up by them.  Composing any code x with it at level q - 1, on either
    side, gives x back: the rows below q - 1 are x's, row q - 1 is x's
    because the unit's two entries there are equal, and the zero top row
    adds nothing.  So the pair would only find x, which is indexed, and
    skipping it changes no code, position, provenance, interned row or
    ``admit`` call; ``products`` still lists it.  A zero top row over
    unequal entries (possible only in a hand-built cell set) is no unit
    and is composed.  The face maps are dropped on return; the index keeps
    the codes, their positions and ``rows``.
    """
    index = CompositionIndex(rows)
    compose_codes, identity_code = rows.compose, rows.identity
    queue = deque()  # (dim, pos) of the cells to compose, in admission order
    codes, located, provenance = index.codes, index.located, index.provenance
    sources = {}  # dim -> {p-source key: positions}
    targets = {}  # dim -> {p-target key: positions}
    # dim -> per position, how many cells of that dim were indexed when the
    # cell was dequeued; those are the partners it has been composed with
    reached = {}
    is_unit = rows.is_unit

    def levels(q: int, code: tuple) -> range:
        # the offsets 2p + 1 of the levels p a cell is filed and looked up
        # under; a unit leaves out its top level
        if q and is_unit(code):
            return range(1, 2 * q - 1, 2)
        return range(1, 2 * q, 2)

    def add(q: int, code: tuple, origin):
        position = located.get(q)
        if position is None:
            position = located[q] = {}
            codes[q], sources[q], targets[q], reached[q] = [], {}, {}, []
        if code in position or not admit(q, code):
            return
        j = position[code] = len(codes[q])
        codes[q].append(code)
        provenance.setdefault(q, []).append(origin)
        source, target = sources[q], targets[q]
        for k in levels(q, code):
            source.setdefault(code[:k], []).append(j)
            target.setdefault(code[:k - 1] + (code[k],), []).append(j)
        queue.append((q, j))

    for code in seeds:
        add(len(code) // 2 - 1, code, None)
    while queue:
        q, i = queue.popleft()
        coded = codes[q]
        t = coded[i]
        if q < max_dim:
            add(q + 1, identity_code(t), (i,))
        seen = reached[q]
        seen.append(len(coded))  # cells of a dim are dequeued in position order
        source, target = sources[q], targets[q]
        # the partner at j is skipped when it was dequeued with t indexed:
        # the pair was composed then
        pairs = []
        for k in levels(q, t):
            p = k // 2
            pairs += [(j, p, 0) for j in source.get(t[:k - 1] + (t[k],), ())
                      if not j < i < seen[j]]
            pairs += [(j, p, 1) for j in target.get(t[:k], ())
                      if j != i and not j < i < seen[j]]
        pairs.sort()
        position = located[q]
        for j, p, t_is_right in pairs:
            if t_is_right:
                key = (p, j, i)
                code = compose_codes(coded[j], t, p)
            else:
                key = (p, i, j)
                code = compose_codes(t, coded[j], p)
            if code not in position:
                add(q, code, key)
    return index


class EnumeratedOmegaCat(Record):
    """The compositional closure of the atom tables, one layer per dimension.

    ``index`` is the :class:`CompositionIndex` that :func:`enumerate_nu`
    built: the cells' codes and provenance, with the pair record read off
    the codes on first read.  ``cells[dim]`` is then the tuple of their
    tables, decoded on first read.  For cells given by hand the index is
    built on first use by the same closure, seeded with ``cells`` and
    confined to them, so the record files a composite outside the cells
    as None.  Positions in the index are positions in ``cells[dim]``, so a
    table listed twice in one ``cells[dim]``, or listed under a key other
    than its dimension, is refused with ValueError, and so is a key above
    ``max_dim``.  ``atom_names`` maps each atom table to its generator's
    name, an empty dict when not given.
    """

    # no __slots__: the cached index and cells live in the instance __dict__
    _fields = ("complex", "max_dim", "cells", "atom_names")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None
    # copies keep the index, with the provenance that enumerate_nu recorded
    __reduce__ = object.__reduce__

    def __init__(self, complex: Adc, max_dim: int,
                 cells: dict,  # dim -> tuple of NuTable, in discovery order
                 atom_names: dict | None = None):
        self.complex = complex
        self.max_dim = max_dim
        self.cells = cells
        self.atom_names = {} if atom_names is None else atom_names
        for q, tables in cells.items():
            if q > max_dim:
                raise ValueError("cells[%d] lies above max_dim %d" % (q, max_dim))
            if any(table.dim != q for table in tables):
                raise ValueError("cells[%d] lists a table of another dimension" % q)
            if len(set(tables)) != len(tables):
                raise ValueError("cells[%d] lists a table more than once" % q)

    @cached_property
    def index(self) -> CompositionIndex:
        rows = RowCodes()
        given = [rows.encode(t) for q in sorted(self.cells) for t in self.cells[q]]
        allowed = set(given)
        return _close(rows, given, self.max_dim, lambda q, code: code in allowed)

    @cached_property
    def cells(self) -> dict:
        # reached only when enumerate_nu left the cells to its index
        codes, decode = self.index.codes, self.index.rows.decode
        return {q: tuple(map(decode, codes.get(q, ()))) for q in range(self.max_dim + 1)}

    def __contains__(self, table: NuTable) -> bool:
        return table in self.index

    def nontrivial(self, q: int) -> tuple:
        return tuple(t for t in self.cells.get(q, ()) if not t.is_trivial())

    def total(self) -> int:
        return sum(len(ts) for ts in self.cells.values())


def enumerate_nu(complex_: Adc, max_dim=None, max_cells: int = 10000,
                 max_coeff: int = 8) -> EnumeratedOmegaCat:
    """Close the atom tables of dimension <= max_dim under identities and
    binary composition.

    The atoms seed the closure in degree order, and its index, with the
    codes and the provenance of every cell, stays on the result for the
    roundtrip's certificate; the tables and the pair record (for the
    relation list) are read off its codes on first read.  ``admit`` reads a
    code's dimension and the largest coefficient of its rows off
    :class:`RowCodes`, without a table.

    Raises :class:`EnumerationCapExceeded` when more than ``max_cells``
    tables appear or some coefficient exceeds ``max_coeff``, with the
    count reached and the flag to raise in its message, and ValueError
    when an atom table is not actually a cell: with the parser's message
    when the complex breaks a chain complex law (the first failure of
    :func:`polyadc.adc.validate_adc`, looked up only once an atom has a
    fault), and otherwise naming the atom and the condition, since the
    complex is not unital.  The atoms are not run through
    :func:`is_valid_table`: one lookup of each generator's kept atom
    (``polyadc.adc._atom``) gives its rows and the violated condition,
    read off the boundaries that building the rows computed.
    """
    if max_dim is None:
        max_dim = complex_.max_degree
    rows = RowCodes()
    peak = rows.peaks.__getitem__
    atom_names = {}
    counts = {}  # dim -> codes admitted so far

    def atoms():
        for q in range(min(max_dim, complex_.max_degree) + 1):
            for name in complex_.generators(q):
                atom_rows, cond, _ = _atom(complex_, name)
                if cond is not None:
                    _require_chain_complex(complex_)
                    raise ValueError(
                        "atom table of %r violates cell condition %d; "
                        "the complex is not unital enough to enumerate" % (name, cond)
                    )
                table = NuTable(atom_rows)
                atom_names[table] = name
                yield rows.encode(table)

    def admit(q: int, code: tuple) -> bool:
        top = max(map(peak, code))
        admitted = sum(counts.values())
        if top > max_coeff:
            raise EnumerationCapExceeded(
                "coefficient %d above %d in a %d-cell (after %d cells); "
                "raise --max-coeff" % (top, max_coeff, q, admitted)
            )
        if admitted == max_cells:
            raise EnumerationCapExceeded(
                "more than %d cells (degree %d had reached %d); raise --max-cells"
                % (max_cells, q, counts.get(q, 0))
            )
        counts[q] = counts.get(q, 0) + 1
        return True

    enum = object.__new__(EnumeratedOmegaCat)
    enum.complex, enum.max_dim, enum.atom_names = complex_, max_dim, atom_names
    enum.index = _close(rows, atoms(), max_dim, admit)
    return enum


# ---------------------------------------------------------------------------
# brute-force cell search (the independent oracle for the enumeration)

MAX_BRUTE_FORCE_VECTORS = 10**6


def brute_force_nu(complex_: Adc, q: int, coeff_cap: int) -> tuple:
    """All q-cells whose coefficients are bounded by ``coeff_cap``.

    Generates every candidate table degree by degree straight from the cell
    conditions, with no reference to atoms or composition.  Exponential in
    the basis sizes; useful only as ground truth on small complexes.
    Raises :class:`EnumerationCapExceeded`, before building anything, when
    the candidate vectors would outnumber ``MAX_BRUTE_FORCE_VECTORS``.

    There are no generators above the top degree n, so above n the cell
    conditions force every row: row n is an equal pair and every higher row
    is zero.  A q-cell for q > n is therefore an n-cell padded with q - n
    zero rows; more than ``MAX_BRUTE_FORCE_VECTORS`` padded rows in all
    are refused before any is built.
    """
    top = min(q, complex_.max_degree)
    if top < 0:
        return ()
    count = 0
    for p in range(top + 1):
        count += (coeff_cap + 1) ** len(complex_.generators(p))
        if count > MAX_BRUTE_FORCE_VECTORS:
            raise EnumerationCapExceeded(
                "brute force needs more than %d candidate vectors by degree %d "
                "with coefficients up to %d; lower --cap or --dim"
                % (MAX_BRUTE_FORCE_VECTORS, p, coeff_cap))

    def vectors(p):
        # in the order of their items, so that the search below meets the
        # cells in NuTable.key order
        gens = complex_.generators(p)
        out = []
        for combo in product(range(coeff_cap + 1), repeat=len(gens)):
            out.append(IntVector(zip(gens, combo)))
        return sorted(out, key=IntVector.items)

    level0 = [v for v in vectors(0) if complex_.eps(v) == 1]
    if top == 0:
        cells = [NuTable(rows=((v, v),)) for v in level0]
    else:
        by_boundary = {}
        for p in range(1, top + 1):
            bucket = {}
            for v in vectors(p):
                bucket.setdefault(complex_.boundary_vec(p, v), []).append(v)
            by_boundary[p] = bucket
        # depth first, on an explicit stack: ``rows`` holds the rows chosen
        # so far, shared by all their extensions, and ``pending`` the pairs
        # left to try in each degree from 0 up to ``len(rows)``, in order
        cells, rows = [], []
        pending = [product(level0, repeat=2)]
        while pending:
            pair = next(pending[-1], None)
            if pair is None:
                pending.pop()
                if pending:
                    rows.pop()
                continue
            rows.append(pair)
            candidates = by_boundary[len(rows)].get(pair[1] - pair[0], ())
            if len(rows) == top:
                cells.extend(NuTable(rows=tuple(rows) + ((v, v),)) for v in candidates)
                rows.pop()
            else:
                pending.append(product(candidates, repeat=2))
    if q > top:
        if len(cells) * (q - top) > MAX_BRUTE_FORCE_VECTORS:
            raise EnumerationCapExceeded(
                "brute force would pad %d cells of degree %d with %d zero rows "
                "each, more than %d rows; lower --dim"
                % (len(cells), top, q - top, MAX_BRUTE_FORCE_VECTORS))
        zero = IntVector()
        padding = ((zero, zero),) * (q - top)
        cells = [NuTable(rows=cell.rows + padding) for cell in cells]
    return tuple(cells)
