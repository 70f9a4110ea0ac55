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
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product

from .adc import Adc, atom_fault, atom_table
from .zlin import IntVector


class NotComposable(Exception):
    """The two tables do not share the required face."""

    code = "NOT_COMPOSABLE"


class EnumerationCapExceeded(Exception):
    """Cell enumeration hit the cell-count or coefficient cap."""

    code = "ENUM_CAP"


@dataclass(frozen=True, slots=True)
class NuTable:
    """An immutable source/target table; ``rows[p]`` is (negative, positive).

    The hash is computed on first use and kept; it takes no part in ``==``
    or ``repr``.
    """

    rows: tuple
    _hash: int | None = field(default=None, init=False, repr=False, compare=False)

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(self.rows))
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
    for p in range(q + 1):
        gens = set(complex_.generators(p))
        for vec in table.rows[p]:
            if not vec.is_nonnegative() or (vec.support() - gens):
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
    """The cells a closure filed, and the record of how they were made.

    ``cells[dim]`` maps each table to its insertion position.
    ``products[dim][(p, pos x, pos y)]`` is the position of
    ``compose(x, y, p)``, or None when the composite is not indexed, and
    ``identities[dim][pos t]`` is the position of ``identity(t)`` one
    dimension up; :func:`close_under_composition` fills the record with
    every product and identity it forms.

    ``provenance[dim][pos]`` says how a cell first entered the index: None
    for a cell added as it stands (a seed), ``(pos t,)`` for the identity
    of the cell at ``pos t`` one dimension down, and ``(p, pos x, pos y)``
    for ``compose(x, y, p)``.
    """

    def __init__(self):
        self.cells = {}  # dim -> {table: insertion position}
        self.products = {}  # dim -> {(p, pos x, pos y): pos of the composite or None}
        self.identities = {}  # dim -> {pos t: pos of identity(t) in dim + 1}
        self.provenance = {}  # dim -> per position, None, (pos t,) or (p, pos x, pos y)

    def __contains__(self, table: NuTable) -> bool:
        return table in self.cells.get(table.dim, ())


class RowCodes:
    """The row vectors of one closure, each interned once to a small int.

    A q-cell is coded by the flat tuple ``(neg_0, pos_0, ..., neg_q,
    pos_q)`` of its rows' ids, so that cells and their faces hash and
    compare as tuples of ints.  :meth:`compose` and :meth:`identity` are
    :func:`compose` and :func:`identity` on codes.  The row sums of
    composites are memoized by the ids of their terms; each new sum goes
    through :meth:`IntVector.__add__` and its 64-bit check.
    """

    __slots__ = ("vectors", "_ids", "_sums", "_zero")

    def __init__(self):
        self.vectors = []  # id -> IntVector
        self._ids = {}  # IntVector -> id
        self._sums = []  # id a -> {id b: id of a + b}
        self._zero = self.intern(IntVector())

    def intern(self, vec: IntVector) -> int:
        i = self._ids.get(vec)
        if i is None:
            i = self._ids[vec] = len(self.vectors)
            self.vectors.append(vec)
            self._sums.append({})
        return i

    def encode(self, table: NuTable) -> tuple:
        return tuple(self.intern(vec) for row in table.rows for vec in row)

    def decode(self, code: tuple) -> NuTable:
        vectors = self.vectors
        pairs = iter(code)
        return NuTable(rows=tuple((vectors[a], vectors[b]) for a, b in zip(pairs, pairs)))

    def identity(self, code: tuple) -> tuple:
        return code + (self._zero, self._zero)

    def compose(self, x: tuple, y: tuple, p: int) -> tuple:
        """The code of ``compose(x, y, p)`` for codes x and y that the
        caller has matched along their p-face: x's rows below p, x's
        negative and y's positive row p, and the sums of the rows above."""
        k = 2 * p + 1
        above = tuple(map(dict.get, map(self._sums.__getitem__, x[k + 1:]), y[k + 1:]))
        if None in above:
            above = tuple(self._sum(a, b) for a, b in zip(x[k + 1:], y[k + 1:]))
        return x[:k] + (y[k],) + above

    def _sum(self, a: int, b: int) -> int:
        with_a = self._sums[a]
        c = with_a.get(b)
        if c is None:
            c = with_a[b] = self.intern(self.vectors[a] + self.vectors[b])
        return c


def close_under_composition(seeds, max_dim: int, admit) -> CompositionIndex:
    """Close the seeds under identities up to ``max_dim`` and composition.

    ``admit(table)`` is asked about each new table; False leaves it out and
    an exception stops the closure.  The composites of a dequeued ``t`` are
    formed by the partner's insertion position, then p, then ``t`` on the
    left before ``t`` on the right, so the order depends on the seeds alone.

    Each composable pair is composed once, when the first of its two cells
    is dequeued if the other is indexed by then, else when the second is,
    and filed in the index's ``products`` record; the identity links go to
    ``identities``.  Each admitted cell's ``provenance`` is the seed, the
    identity or the pair that produced it first, so it names cells indexed
    before it and traces back to the seeds without a cycle.

    The closure runs on the integer codes of :class:`RowCodes`.  Each cell
    is filed under its p-source ``code[:2p + 1]`` and its p-target
    ``code[:2p] + (code[2p + 1],)`` for every p below its dimension, so the
    partners of a cell are one lookup each and match by that very key.  A
    table is built only for a code not yet indexed, to ask ``admit``; the
    codes, the face maps and the row sums are dropped on return.
    """
    index = CompositionIndex()
    interned = RowCodes()
    compose_codes, identity_code = interned.compose, interned.identity
    queue = deque()  # (dim, pos) of the cells to compose, in admission order
    codes = {}  # dim -> per position, the cell's code
    located = {}  # dim -> {code: position}
    sources = {}  # dim -> {p-source key: positions}
    targets = {}  # dim -> {p-target key: positions}
    # dim -> per position, how many cells of that dim were indexed when the
    # cell was dequeued; those are the partners it has been composed with
    reached = {}

    def add(q: int, code: tuple, origin, table=None):
        position = located.get(q)
        if position is None:
            position = located[q] = {}
            codes[q], sources[q], targets[q], reached[q] = [], {}, {}, []
        j = position.get(code)
        if j is not None:
            return j
        if table is None:
            table = interned.decode(code)
        if not admit(table):
            return None
        j = position[code] = len(codes[q])
        codes[q].append(code)
        index.cells.setdefault(q, {})[table] = j
        index.provenance.setdefault(q, []).append(origin)
        source, target = sources[q], targets[q]
        for k in range(1, 2 * q, 2):
            source.setdefault(code[:k], []).append(j)
            target.setdefault(code[:k - 1] + (code[k],), []).append(j)
        queue.append((q, j))
        return j

    for table in seeds:
        add(table.dim, interned.encode(table), None, table)
    while queue:
        q, i = queue.popleft()
        coded = codes[q]
        t = coded[i]
        if q < max_dim:
            j = add(q + 1, identity_code(t), (i,))
            if j is not None:
                index.identities.setdefault(q, {})[i] = j
        seen = reached[q]
        seen.append(len(coded))  # cells of a dim are dequeued in position order
        filed = index.products.setdefault(q, {})
        source, target = sources[q], targets[q]
        # the partner at j is skipped when it was dequeued with t indexed:
        # the pair was composed then
        pairs = []
        for k in range(1, 2 * q, 2):
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
            found = position.get(code)
            filed[key] = add(q, code, key) if found is None else found
    return index


@dataclass
class EnumeratedOmegaCat:
    """The compositional closure of the atom tables, one layer per dimension.

    ``index`` is the :class:`CompositionIndex` that :func:`enumerate_nu`
    built, with the record of every product and identity among the cells
    that its closure filed.  For cells given by hand it is built on first
    use by the same closure, seeded with ``cells`` and confined to them, so
    a composite outside the cells is recorded as None.  Positions in the
    index are positions in ``cells[dim]``, so a table listed twice in one
    ``cells[dim]`` is refused with ValueError.
    """

    complex: Adc
    max_dim: int
    cells: dict  # dim -> tuple of NuTable, in discovery order
    atom_names: dict = field(default_factory=dict)  # NuTable -> generator name

    def __post_init__(self):
        for q, tables in self.cells.items():
            if len(set(tables)) != len(tables):
                raise ValueError("cells[%d] lists a table more than once" % q)

    @cached_property
    def index(self) -> CompositionIndex:
        given = [t for q in sorted(self.cells) for t in self.cells[q]]
        return close_under_composition(given, self.max_dim, set(given).__contains__)

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

    The atoms seed :func:`close_under_composition` in degree order, and
    its index, with the record of every product it formed and the
    provenance of every cell, stays on the result for the relation list,
    the generation check, the indecomposables and the roundtrip's
    certificate.

    Raises :class:`EnumerationCapExceeded` when more than ``max_cells``
    tables appear or some coefficient exceeds ``max_coeff``, with the
    count reached and the flag to raise in its message, and ValueError
    when an atom table is not actually a cell (which happens for complexes
    that are not unital).  The atoms are not run through
    :func:`is_valid_table`: :func:`polyadc.adc.atom_fault` reads the
    violated condition off the boundaries that building the atom's rows
    computed.
    """
    if max_dim is None:
        max_dim = complex_.max_degree
    atom_names = {}
    counts = {}  # dim -> tables admitted so far

    def atoms():
        for q in range(min(max_dim, complex_.max_degree) + 1):
            for name in complex_.generators(q):
                cond = atom_fault(complex_, name)
                if cond is not None:
                    raise ValueError(
                        "atom table of %r violates cell condition %d; "
                        "the complex is not unital enough to enumerate" % (name, cond)
                    )
                table = atom_to_table(complex_, name)
                atom_names[table] = name
                yield table

    def admit(table: NuTable) -> bool:
        top = table.max_coeff()
        admitted = sum(counts.values())
        if top > max_coeff:
            raise EnumerationCapExceeded(
                "coefficient %d above %d in a %d-cell (after %d cells); "
                "raise --max-coeff" % (top, max_coeff, table.dim, admitted)
            )
        if admitted == max_cells:
            raise EnumerationCapExceeded(
                "more than %d cells (degree %d had reached %d); raise --max-cells"
                % (max_cells, table.dim, counts.get(table.dim, 0))
            )
        counts[table.dim] = counts.get(table.dim, 0) + 1
        return True

    index = close_under_composition(atoms(), max_dim, admit)
    enum = EnumeratedOmegaCat(
        complex=complex_,
        max_dim=max_dim,
        cells={q: tuple(index.cells.get(q, ())) for q in range(max_dim + 1)},
        atom_names=atom_names,
    )
    enum.index = index
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
    splittings are read from the products recorded in ``enum.index``.
    """
    out = {}
    for q in range(enum.max_dim + 1):
        tables = enum.cells.get(q, ())
        split = {k for (_, i, j), k in enum.index.products.get(q, {}).items()
                 if not tables[i].is_trivial() and not tables[j].is_trivial()}
        out[q] = tuple(t for k, t in enumerate(tables)
                       if not t.is_trivial() and k not in split)
    return out
