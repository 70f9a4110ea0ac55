"""The cell tables over an augmented directed complex and their algebra.

A q-cell over a complex C is a table of chain pairs (x-_p, x+_p) for p from
0 to q satisfying the four conditions checked by :func:`is_valid_table`:
positivity, the boundary condition, augmentation 1 in degree 0, and equal
top rows.  Faces, identities and binary composition are simple row surgery
on such tables, which is what makes this representation attractive to
compute with.

The closure and the enumeration of the cells are in :mod:`polyadc.nu`,
which serves these names too; a presentation's tables need only this
module.
"""

from __future__ import annotations

from .adc import Adc, _atom
from .zlin import IntVector, Record, _setattr


class NotComposable(Exception):
    """The two tables do not share the required face."""

    code = "NOT_COMPOSABLE"


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

    def is_trivial(self) -> bool:
        """True for identity tables: positive dimension with zero top row."""
        if self.dim == 0:
            return False
        neg, pos = self.rows[-1]
        return neg.is_zero() and pos.is_zero()

    def key(self):
        """A canonical sorting key; total on tables of equal dimension."""
        return tuple((neg.items(), pos.items()) for neg, pos in self.rows)

    def __repr__(self):
        return "NuTable(dim=%d, top=%r)" % (self.dim, self.rows[-1][1])


def atom_to_table(complex_: Adc, name: str) -> NuTable:
    """The table spanned by a single generator: ``rows[p]`` holds the pair
    (negative row, positive row) in degree p, for p from 0 up to the
    generator's dimension.  The rows are built once per complex and kept
    on it."""
    return NuTable(_atom(complex_, name)[0])


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
    return NuTable(table.rows[:p] + ((picked, picked),))


def identity(table: NuTable) -> NuTable:
    zero = IntVector()
    return NuTable(table.rows + ((zero, zero),))


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
        (xn, xp), (yn, yp) = x.rows[r], y.rows[r]
        if xn is xp and yn is yp:  # a top row: one object on both sides
            total = xn + yn
            rows.append((total, total))
        else:
            rows.append((xn + yn, xp + yp))
    return NuTable(tuple(rows))
