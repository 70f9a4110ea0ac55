"""The cells over an augmented directed complex, closed from its atoms.

The cells are the tables of :mod:`polyadc.table`, whose names this module
serves as well.  :func:`enumerate_nu` closes the atoms under composition
through one :class:`CompositionIndex` of packed rows, and
:func:`brute_force_nu` lists the cells of one dimension from the cell
conditions alone.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product

from .adc import Adc, _atom, _require_adc, _require_chain_complex
# the table algebra is served here too: callers, tests and the benchmark's
# tracer read these names on this module
from .table import (NotComposable, NuTable, atom_to_table, composable,  # noqa: F401
                    compose, face, identity, is_valid_table)
from .zlin import INT64_MAX, IntVector, Record


class EnumerationCapExceeded(Exception):
    """Cell enumeration hit the cell-count or coefficient cap."""

    code = "ENUM_CAP"


# ---------------------------------------------------------------------------
# the composition index and the closure from the atoms

class CompositionIndex:
    """The cells a closure filed, by code, and the pair record read off them.

    ``rows`` is the closure's :class:`PackedRows`.  ``codes[dim]`` lists,
    for each degree the coder has, each cell's code in insertion order
    (seeds, identities, then composites), ``located[dim]`` maps it to its
    position, and ``provenance[dim][pos]`` says how the cell first entered:
    None for a seed, ``(pos t,)`` for the identity of the cell at ``pos t``
    one dimension down, ``(p, pos x, pos y)`` for ``compose(x, y, p)``.  A
    table is in the index when it packs to a filed code.

    The pair record is read off the codes on first read: ``products[dim][(p,
    pos x, pos y)]`` is the position of ``compose(x, y, p)``, or None when
    that is not indexed, for every composable pair of filed cells, in each
    dimension that has cells.
    """

    def __init__(self, rows: PackedRows):
        self.rows = rows
        self.codes = {}  # dim -> per position, the cell's code
        self.located = {}  # dim -> {code: position}
        self.provenance = {}  # dim -> per position, None, (pos t,) or (p, pos x, pos y)

    @cached_property
    def products(self) -> dict:  # dim -> {(p, pos x, pos y): pos of composite or None}
        # x composes with y at level p when x's p-target key is y's p-source
        # key; along the top face a unit gives its partner back
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
        # a table that does not pack is in no filed code
        return self.rows.encode(table.rows) in self.located.get(table.dim, ())


class PackedRows:
    """The rows of one closure, each packed into one int.

    ``slots[p]`` maps each generator of degree p, in order, to the offset
    of its ``width``-bit slot.  Filed rows hold entries from 0 to
    ``limit``, and 3 * limit fits in a slot, so a sum of up to three filed
    rows carries into no slot, and a row has an entry above ``limit``
    exactly when adding ``bias`` sets a bit of ``guard``.  A q-cell's code
    is the tuple ``(neg_0, pos_0, ..., neg_q, pos_q)`` of its packed rows,
    equal to another exactly when their tables are; a zero row is 0.
    :meth:`compose` and :meth:`identity` are :func:`compose` and
    :func:`identity` on codes.
    """

    __slots__ = ("slots", "limit", "width", "bias", "guard", "unpacked")

    def __init__(self, levels: list, limit: int):
        self.limit, self.unpacked = limit, {}
        width = self.width = (3 * limit | 1).bit_length()
        self.slots = [dict(zip(level, range(0, len(level) * width, width))) for level in levels]
        ones = ((1 << max(map(len, levels), default=0) * width) - 1) // ((1 << width) - 1)
        self.guard, self.bias = ones << width - 1, ones * ((1 << width - 1) - 1 - limit)

    def encode(self, rows: tuple):
        """The code of a table's rows, a tuple of (negative, positive)
        pairs, or None when a row holds an entry off the slots or outside
        1 to ``limit``."""
        code, limit = [], self.limit
        for slot, pair in zip(self.slots, rows):
            for vec in pair:
                row = 0
                for name, c in vec._entries.items():
                    if name not in slot or not 0 < c <= limit:
                        return None
                    row += c << slot[name]
                code.append(row)
        return tuple(code) if len(code) == 2 * len(rows) else None

    def unpack(self, p: int, row: int) -> IntVector:
        """The degree-p vector of a row, built once and kept in
        ``unpacked``; CoefficientOverflow past 64 bits."""
        vec = self.unpacked.get((p, row))
        if vec is None:
            mask = (1 << self.width) - 1
            vec = self.unpacked[p, row] = IntVector._of(
                {g: row >> at & mask for g, at in self.slots[p].items()})
        return vec

    def decode(self, code: tuple) -> NuTable:
        pairs = iter([self.unpack(k >> 1, row) for k, row in enumerate(code)])
        return NuTable(tuple(zip(pairs, pairs)))

    def identity(self, code: tuple) -> tuple:
        return code + (0, 0)

    def is_unit(self, code: tuple) -> bool:
        """Whether a code of positive dimension is a unit's (the identity
        of a cell): a zero top row over an equal pair."""
        return code[-1] == code[-2] == 0 and code[-3] == code[-4]

    def compose(self, x: tuple, y: tuple, p: int) -> tuple:
        """The code of ``compose(x, y, p)`` for codes matched along their
        p-face: x's rows below p, x's negative and y's positive row p, and
        the sums of the rows above."""
        k = 2 * p + 1
        return (*x[:k], y[k], *map(int.__add__, x[k + 1:], y[k + 1:]))


def close_under_composition(seeds, max_dim: int, admit) -> CompositionIndex:
    """Close the seed tables under identities up to ``max_dim`` and
    composition.

    ``admit(table)`` is asked about each new table; False leaves it out and
    an exception stops the closure.  This is the table-level face of the
    one closure loop (:func:`_close`), on rows packed with a slot for each
    generator in the seeds and the 64-bit limit; each candidate is decoded
    for ``admit``; past that limit decoding raises CoefficientOverflow.
    A seed with a negative entry (no cell has one) raises ValueError.

    A unit that is no seed is reached only through the cell it is the
    identity of, since two units are not composed: on a hand-built set
    with holes, the identity of a composite that the set leaves out is not
    reached, though the composite of two units in the set is that identity.
    """
    seeds = [table.rows for table in seeds]
    names = [{} for _ in range(max([max_dim + 1, *map(len, seeds)]))]
    for pairs in seeds:
        for level, (neg, pos) in zip(names, pairs):
            level.update(dict.fromkeys([*neg._entries, *pos._entries]))
    rows = PackedRows(names, INT64_MAX)
    codes = list(map(rows.encode, seeds))
    if None in codes:
        raise ValueError("a seed table has a negative entry, and no cell has one")
    return _close(rows, codes, max_dim, lambda q, code: admit(rows.decode(code)))


def _close(rows: PackedRows, seeds, max_dim: int, admit) -> CompositionIndex:
    """The closure loop: close the seed codes under identities up to
    ``max_dim`` and composition, on the packed codes of ``rows``.

    ``admit(q, code)`` is asked about each new code of a q-cell; False
    leaves it out and an exception stops the closure.  The seeds come
    first, in order.  Then degree by degree, from 0 up, the identities of
    the cells one degree down (closed by then) come in position order,
    and the non-units of the degree are dequeued in position order, each
    composed with its partners by the partner's position, then p, then on
    the left first.  So the order depends on the seeds alone.

    A *unit* (a zero top row over an equal pair) is the identity of a
    cell.  Units are never dequeued, so no two units are composed: below
    their top face their composite is the identity of their cells'
    composite, which the degree below holds, with its identity, unless
    ``admit`` left one out.  Nor is a unit filed under its top-face keys:
    composed there with a cell, it gives the cell.  Every other pair is
    composed once, when the first of its non-units is dequeued if the
    other cell is indexed by then, else when the second is; ``products``
    lists every pair.  Each cell's ``provenance`` is the seed, identity or
    pair that made it first, so it names cells indexed before it.

    Each cell is filed under its p-source ``code[:2p + 1]`` and its
    p-target ``code[:2p] + (code[2p + 1],)`` for every p below its
    dimension, so its partners are one lookup each.
    """
    index = CompositionIndex(rows)
    compose_codes, identity_code, is_unit = rows.compose, rows.identity, rows.is_unit
    codes, located, provenance = index.codes, index.located, index.provenance
    # per dim: p-source and p-target keys to positions; per position, how
    # many cells were indexed when it was dequeued (0 if not yet); and the
    # positions to dequeue, the non-units
    state = []
    for q in range(len(rows.slots)):  # every degree a seed or max_dim reaches
        codes[q], located[q] = [], {}
        state.append(({}, {}, [], []))

    def add(q: int, code: tuple, origin):
        position, coded = located[q], codes[q]
        if code in position or not admit(q, code):
            return
        j = position[code] = len(coded)
        coded.append(code)
        provenance.setdefault(q, []).append(origin)
        source, target, seen, work = state[q]
        seen.append(0)
        unit = not q or is_unit(code)  # 0-cells, like units, are never dequeued
        for k in range(1, 2 * q - 1 if unit else 2 * q, 2):
            source.setdefault(code[:k], []).append(j)
            target.setdefault(code[:k - 1] + (code[k],), []).append(j)
        if not unit:
            work.append(j)

    for code in seeds:
        add(len(code) // 2 - 1, code, None)
    for q, (source, target, seen, work) in enumerate(state):
        if 0 < q <= max_dim:
            for i, t in enumerate(codes[q - 1]):
                add(q, identity_code(t), (i,))
        coded, position = codes[q], located[q]
        for i in work:  # grows as composites are admitted
            t = coded[i]
            seen[i] = len(coded)
            # the partner at j is skipped when it was dequeued with t
            # indexed: the pair was composed then
            pairs = []
            for k in range(1, 2 * q, 2):
                p = k // 2
                pairs += [(j, p, 0) for j in source.get(t[:k - 1] + (t[k],), ())
                          if not j < i < seen[j]]
                pairs += [(j, p, 1) for j in target.get(t[:k], ())
                          if j != i and not j < i < seen[j]]
            pairs.sort()
            for j, p, t_is_right in pairs:
                key = (p, j, i) if t_is_right else (p, i, j)
                code = compose_codes(coded[key[1]], coded[key[2]], p)
                if code not in position:
                    add(q, code, key)
        state[q] = None  # degree q is closed, and nothing is filed in it again
    return index


class EnumeratedOmegaCat(Record):
    """The compositional closure of the atom tables, one layer per dimension.

    ``index`` is the :class:`CompositionIndex` that :func:`enumerate_nu`
    built, and ``cells[dim]`` the tuple of the tables of its codes, decoded
    on first read.  For cells given by hand the index is built on first use
    by :func:`close_under_composition`, seeded with ``cells`` and confined
    to them, so the record files a composite outside them as None, and a
    negative entry raises ValueError.  Index positions are positions in
    ``cells[dim]``, so a table listed twice in one ``cells[dim]``, or under
    a key other than its dimension, or a key above ``max_dim``, raises
    ValueError.  ``atom_names`` maps each atom table to its generator's
    name: as given (an empty dict when not), or for :func:`enumerate_nu`'s
    result its seeds, built on first read.
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
        self.complex, self.max_dim, self.cells = complex, max_dim, cells
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
        given = [t for q in sorted(self.cells) for t in self.cells[q]]
        return close_under_composition(given, self.max_dim, set(given).__contains__)

    @cached_property
    def cells(self) -> dict:
        # reached only when enumerate_nu left the cells to its index
        codes, decode = self.index.codes, self.index.rows.decode
        return {q: tuple(map(decode, codes.get(q, ()))) for q in range(self.max_dim + 1)}

    @cached_property
    def atom_names(self) -> dict:
        # reached only for enumerate_nu's result, whose seeds are the atoms
        # of the generators its coder has slots for
        complex_ = self.complex
        return {atom_to_table(complex_, name): name
                for slot in self.index.rows.slots for name in slot}

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

    The atoms seed the closure (:func:`_close`) in degree order, each
    packed from the rows that :func:`polyadc.adc._atom` keeps.  Its index,
    with each cell's code and provenance, stays on the result for the
    certificate; tables, ``atom_names`` and the pair record are built on
    first read.  Rows are packed with ``max_coeff`` (at most the 64-bit
    limit) as the limit, so ``admit`` finds a coefficient above it with one
    added bias and one AND per row, and unpacks only then, for the message.

    Raises :class:`EnumerationCapExceeded` when more than ``max_cells``
    tables appear or some coefficient exceeds ``max_coeff``, with the
    count reached and the flag to raise in its message,
    CoefficientOverflow past 64 bits, TypeError on anything but an
    :class:`Adc`, and ValueError when an atom table is not actually a
    cell: with the parser's message when the complex breaks a chain
    complex law (the first failure of :func:`polyadc.adc.validate_adc`,
    looked up only once an atom has a fault), and otherwise naming the
    atom and the condition, since the complex is not unital.
    """
    _require_adc(complex_)
    if max_dim is None:
        max_dim = complex_.max_degree
    rows = PackedRows(list(map(complex_.generators, range(max_dim + 1))),
                      min(max_coeff, INT64_MAX))
    bias, guard = rows.bias, rows.guard
    counts = {}  # dim -> codes admitted so far
    admitted = 0

    def refuse(pairs: tuple, q: int):
        top = max(max(vec._entries.values(), default=0) for pair in pairs for vec in pair)
        raise EnumerationCapExceeded(
            "coefficient %d above %d in a %d-cell (after %d cells); "
            "raise --max-coeff" % (top, max_coeff, q, admitted))

    def atoms():
        for q, slot in enumerate(rows.slots):
            for name in slot:
                atom_rows, cond, _ = _atom(complex_, name)
                if cond is not None:
                    _require_chain_complex(complex_)
                    raise ValueError(
                        "atom table of %r violates cell condition %d; "
                        "the complex is not unital enough to enumerate" % (name, cond)
                    )
                code = rows.encode(atom_rows)
                if code is None:  # an entry above the limit
                    refuse(atom_rows, q)
                yield code

    def admit(q: int, code: tuple) -> bool:
        nonlocal admitted
        for row in code:
            if (row + bias) & guard:  # decode raises past 64 bits
                refuse(rows.decode(code).rows, q)
        if admitted == max_cells:
            raise EnumerationCapExceeded(
                "more than %d cells (degree %d had reached %d); raise --max-cells"
                % (max_cells, q, counts.get(q, 0))
            )
        counts[q] = counts.get(q, 0) + 1
        admitted += 1
        return True

    enum = object.__new__(EnumeratedOmegaCat)
    enum.complex, enum.max_dim = complex_, max_dim
    enum.index = _close(rows, atoms(), max_dim, admit)
    return enum


# ---------------------------------------------------------------------------
# brute-force cell search (the independent oracle for the enumeration)

MAX_BRUTE_FORCE_VECTORS = 10**6


def brute_force_nu(complex_: Adc, q: int, coeff_cap: int) -> tuple:
    """All q-cells whose coefficients are bounded by ``coeff_cap``.

    Generates every candidate table degree by degree straight from the cell
    conditions, with no reference to atoms or composition: exponential in
    the basis sizes, ground truth on small complexes only.  Raises
    :class:`EnumerationCapExceeded`, before building anything, when the
    candidate vectors would outnumber ``MAX_BRUTE_FORCE_VECTORS``.

    Above the top degree n the cell conditions force every row (row n an
    equal pair, every higher row zero), so a q-cell for q > n is an n-cell
    padded with q - n zero rows; more than ``MAX_BRUTE_FORCE_VECTORS``
    padded rows in all are refused before any is built.
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
        return sorted((IntVector(zip(gens, combo)) for combo in
                       product(range(coeff_cap + 1), repeat=len(gens))), key=IntVector.items)

    level0 = [v for v in vectors(0) if complex_.eps(v) == 1]
    if top == 0:
        cells = [NuTable(((v, v),)) for v in level0]
    else:
        by_boundary = {p: {} for p in range(1, top + 1)}
        for p, bucket in by_boundary.items():
            for v in vectors(p):
                bucket.setdefault(complex_.boundary_vec(p, v), []).append(v)
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
                cells.extend(NuTable(tuple(rows) + ((v, v),)) for v in candidates)
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
        cells = [NuTable(cell.rows + padding) for cell in cells]
    return tuple(cells)
