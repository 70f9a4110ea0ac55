"""Cells over an augmented directed complex, presented as tables.

A q-cell over a complex C is a table of chain pairs (x-_p, x+_p) for p from
0 to q satisfying the four conditions checked by :func:`is_valid_table`:
positivity, the boundary condition, augmentation 1 in degree 0, and equal
top rows.  Faces, identities and binary composition are simple row surgery
on such tables, which is what makes this representation attractive to
compute with.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property
from itertools import product

from .adc import Adc, _atom, atom_table
from .zlin import IntVector, Record, _setattr


class NotComposable(Exception):
    """The two tables do not share the required face."""

    code = "NOT_COMPOSABLE"


class EnumerationCapExceeded(Exception):
    """Cell enumeration hit the cell-count or coefficient cap."""

    code = "ENUM_CAP"


class NuTable(Record):
    """An immutable source/target table; ``rows[p]`` is (negative, positive).

    The hash is computed on first use and kept; it takes no part in ``==``
    or ``repr``.
    """

    __slots__ = ("rows", "_hash")
    _fields = ("rows",)

    def __init__(self, rows: tuple):
        _setattr(self, "rows", rows)
        _setattr(self, "_hash", None)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        if self._hash is None:
            _setattr(self, "_hash", hash(self.rows))
        return self._hash

    @property
    def dim(self) -> int:
        return len(self.rows) - 1

    def row(self, p: int):
        return self.rows[p]

    def is_trivial(self) -> bool:
        """True for identity tables: positive dimension with zero top row."""
        if self.dim == 0:
            return False
        neg, pos = self.rows[-1]
        return neg.is_zero() and pos.is_zero()

    def max_coeff(self) -> int:
        best = 0
        for row in self.rows:
            for vec in row:
                for c in vec._entries.values():
                    if c > best or -c > best:
                        best = abs(c)
        return best

    def key(self):
        """A canonical sorting key; total on tables of equal dimension."""
        return tuple((neg.items(), pos.items()) for neg, pos in self.rows)

    def __repr__(self):
        return "NuTable(dim=%d, top=%r)" % (self.dim, self.rows[-1][1])


def atom_to_table(complex_: Adc, name: str) -> NuTable:
    return NuTable(rows=atom_table(complex_, name))


def is_valid_table(complex_: Adc, table: NuTable):
    """Check the four cell conditions; returns (ok, violated condition index).

    Conditions, in the order they are checked:
      1. every entry lies in the positivity cone of its degree;
      2. boundaries of the rows match the row below;
      3. both degree-0 entries have augmentation 1;
      4. the two top entries coincide.
    """
    q = table.dim
    degree = complex_._degree
    for p in range(q + 1):
        for vec in table.rows[p]:
            if not vec.is_nonnegative() or any(degree.get(g) != p
                                               for g in vec._entries):
                return False, 1
    for p in range(1, q + 1):
        below_neg, below_pos = table.rows[p - 1]
        want = below_pos - below_neg
        for vec in table.rows[p]:
            if complex_.boundary_vec(p, vec) != want:
                return False, 2
    neg0, pos0 = table.rows[0]
    if complex_.eps(neg0) != 1 or complex_.eps(pos0) != 1:
        return False, 3
    top_neg, top_pos = table.rows[q]
    if top_neg != top_pos:
        return False, 4
    return True, None


def face(table: NuTable, p: int, sign: int) -> NuTable:
    """The p-dimensional source (sign -1) or target (sign +1) of a table."""
    if sign not in (-1, 1):
        raise ValueError("sign must be -1 or +1")
    if not 0 <= p < table.dim:
        raise ValueError("face level %d out of range for a %d-cell" % (p, table.dim))
    picked = table.rows[p][0 if sign < 0 else 1]
    return NuTable(rows=table.rows[:p] + ((picked, picked),))


def identity(table: NuTable) -> NuTable:
    zero = IntVector()
    return NuTable(rows=table.rows + ((zero, zero),))


def composable(x: NuTable, y: NuTable, p: int) -> bool:
    """True when the p-target of x equals the p-source of y."""
    if x.dim != y.dim or not 0 <= p < x.dim:
        return False
    return x.rows[:p] == y.rows[:p] and x.rows[p][1] == y.rows[p][0]


def compose(x: NuTable, y: NuTable, p: int) -> NuTable:
    """Compose x then y along their shared p-face.

    Requires the p-target of x to equal the p-source of y.
    """
    if x.dim != y.dim:
        raise NotComposable("tables of dimensions %d and %d" % (x.dim, y.dim))
    if not 0 <= p < x.dim:
        raise NotComposable("no level-%d composition of %d-cells" % (p, x.dim))
    if x.rows[:p] != y.rows[:p] or x.rows[p][1] != y.rows[p][0]:
        raise NotComposable("p-target of the first factor differs from "
                            "p-source of the second (p=%d)" % p)
    rows = []
    for r in range(p + 1):
        rows.append((x.rows[r][0], y.rows[r][1]))
    for r in range(p + 1, x.dim + 1):
        rows.append((x.rows[r][0] + y.rows[r][0], x.rows[r][1] + y.rows[r][1]))
    return NuTable(rows=tuple(rows))


# ---------------------------------------------------------------------------
# the composition index and the closure from the atoms

class CompositionIndex:
    """The cells a closure filed, by code, and the pair record read off them.

    ``rows`` is the closure's :class:`RowCodes`.  ``codes[dim]`` lists the
    code of each cell in insertion order and ``located[dim]`` maps each
    code to its position.  ``provenance[dim][pos]`` says how a cell first
    entered the index: None for a cell added as it stands (a seed),
    ``(pos t,)`` for the identity of the cell at ``pos t`` one dimension
    down, and ``(p, pos x, pos y)`` for ``compose(x, y, p)``.
    ``cells[dim]`` maps each cell's table to its position; the tables are
    decoded on first read.

    The pair record is read off the filed codes on first read:
    ``products[dim][(p, pos x, pos y)]`` is the position of ``compose(x, y,
    p)``, or None when the composite is not indexed, for every composable
    pair of filed cells, and ``identities[dim][pos t]`` is the position of
    ``identity(t)`` one dimension up, where it is filed.  A dimension with
    no cells has no ``products`` entry, and one with no identity link no
    ``identities`` entry.
    """

    def __init__(self, rows: "RowCodes"):
        self.rows = rows
        self.codes = {}  # dim -> per position, the cell's code
        self.located = {}  # dim -> {code: position}
        self.provenance = {}  # dim -> per position, None, (pos t,) or (p, pos x, pos y)
        self._tables = {}  # dim -> the decoded tables, once read

    def tables(self, q: int) -> tuple:
        """The tables of the q-cells, in position order, decoded on first
        read."""
        tables = self._tables.get(q)
        if tables is None:
            tables = tuple(map(self.rows.decode, self.codes.get(q, ())))
            self._tables[q] = tables
        return tables

    @cached_property
    def cells(self) -> dict:  # dim -> {table: insertion position}
        return {q: {t: j for j, t in enumerate(self.tables(q))}
                for q, codes in self.codes.items() if codes}

    @cached_property
    def products(self) -> dict:  # dim -> {(p, pos x, pos y): pos of composite or None}
        # x composes with y at level p when x's p-target key is y's p-source key
        compose_codes, products = self.rows.compose, {}
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
                for i, x in enumerate(coded):
                    for j in by_source.get(x[:k - 1] + (x[k],), ()):
                        filed[(p, i, j)] = position.get(compose_codes(x, coded[j], p))
        return products

    @cached_property
    def identities(self) -> dict:  # dim -> {pos t: pos of identity(t) in dim + 1}
        identity_code, identities = self.rows.identity, {}
        for q, coded in self.codes.items():
            above = self.located.get(q + 1, {})
            links = {i: above[up] for i, up in enumerate(map(identity_code, coded))
                     if up in above}
            if links:
                identities[q] = links
        return identities

    def __contains__(self, table: NuTable) -> bool:
        return table in self.cells.get(table.dim, ())


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
    ``admit`` call; the pair record still lists it.  A zero top row over
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
    zero = rows.zero

    def levels(q: int, code: tuple) -> range:
        # the offsets 2p + 1 of the levels p a cell is filed and looked up
        # under; a unit leaves out its top level
        if q and code[-1] == code[-2] == zero and code[-3] == code[-4]:
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
    than its dimension, is refused with ValueError.  ``atom_names`` maps
    each atom table to its generator's name, an empty dict when not given.
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
        return {q: self.index.tables(q) for q in range(self.max_dim + 1)}

    def cell_set(self, q: int) -> frozenset:
        return frozenset(self.cells.get(q, ()))

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
    relation list, the generation check and the indecomposables) are read
    off its codes on first read.  ``admit`` reads a code's dimension and the
    largest coefficient of its rows off :class:`RowCodes`, without a table.

    Raises :class:`EnumerationCapExceeded` when more than ``max_cells``
    tables appear or some coefficient exceeds ``max_coeff``, with the
    count reached and the flag to raise in its message, and ValueError
    when an atom table is not actually a cell (which happens for complexes
    that are not unital).  The atoms are not run through
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
    """
    if q < 0:
        return ()
    count = 0
    for p in range(q + 1):
        count += (coeff_cap + 1) ** len(complex_.generators(p))
        if count > MAX_BRUTE_FORCE_VECTORS:
            raise EnumerationCapExceeded(
                "brute force needs more than %d candidate vectors by degree %d "
                "with coefficients up to %d; lower --cap or --dim"
                % (MAX_BRUTE_FORCE_VECTORS, p, coeff_cap))

    def vectors(p):
        gens = complex_.generators(p)
        out = []
        for combo in product(range(coeff_cap + 1), repeat=len(gens)):
            out.append(IntVector(zip(gens, combo)))
        return out

    level0 = [v for v in vectors(0) if complex_.eps(v) == 1]
    if q == 0:
        return tuple(sorted((NuTable(rows=((v, v),)) for v in level0),
                            key=NuTable.key))

    by_boundary = {}
    for p in range(1, q + 1):
        bucket = {}
        for v in vectors(p):
            bucket.setdefault(complex_.boundary_vec(p, v), []).append(v)
        by_boundary[p] = bucket

    results = []

    def extend(rows, p):
        below_neg, below_pos = rows[-1]
        want = below_pos - below_neg
        candidates = by_boundary[p].get(want, ())
        if p == q:
            for v in candidates:
                results.append(NuTable(rows=tuple(rows) + ((v, v),)))
            return
        for vn in candidates:
            for vp in candidates:
                extend(rows + [(vn, vp)], p + 1)

    for vn in level0:
        for vp in level0:
            extend([(vn, vp)], 1)

    return tuple(sorted(results, key=NuTable.key))


# ---------------------------------------------------------------------------
# indecomposables

def indecomposables(enum: EnumeratedOmegaCat) -> dict:
    """Per dimension, the non-identity cells with no two-factor splitting.

    A cell counts as decomposable only when it is a composite of two
    non-identity cells; padding with identities does not count.  The
    splittings are the pairs that ``enum.index.products`` reads off the
    filed codes.
    """
    out = {}
    for q in range(enum.max_dim + 1):
        tables = enum.cells.get(q, ())
        split = {k for (_, i, j), k in enum.index.products.get(q, {}).items()
                 if not tables[i].is_trivial() and not tables[j].is_trivial()}
        out[q] = tuple(t for k, t in enumerate(tables)
                       if not t.is_trivial() and k not in split)
    return out
