"""Exact integer linear algebra over named generators.

Vectors and matrices are indexed by generator names (strings) rather than
bare positions, because everything downstream (complexes, cell tables,
quotients) is built on named bases.  All arithmetic is exact.  Every stored
or intermediate coefficient is kept inside a checked 64-bit window so a
blow-up surfaces as :class:`CoefficientOverflow` instead of a silently huge
number that would mask a modelling mistake.

The Smith normal form is deliberately pedestrian: deterministic pivoting
(smallest absolute value, ties broken by row then column), explicit
unimodular bookkeeping, and a divisibility fix-up loop.  Quotients do not
feed it the whole relation matrix: they first reduce, eliminating one
generator for every relation with a coefficient of +-1 by sparse
substitution, and run the dense normal form only on the few relations
left (reduce-then-SNF, as in Kaczynski, Mrozek and Slusarek 1998).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

INT64_MAX = 2**63 - 1


class CoefficientOverflow(Exception):
    """A coefficient left the checked 64-bit range."""

    code = "OVERFLOW"


class TorsionError(Exception):
    """A quotient that was expected to be free has a finite part."""

    code = "TORSION"


class AmbiguousCoordinates(Exception):
    """A vector admits more than one N-combination of the given generators."""

    code = "AMBIGUOUS"


def _ck(value):
    if value > INT64_MAX or value < -INT64_MAX:
        raise CoefficientOverflow(
            "coefficient %d exceeds the checked 64-bit range" % value
        )
    return value


class IntVector:
    """Element of the free abelian group on named generators.

    Immutable.  Zero coefficients are never stored, so ``==`` and ``hash``
    agree with mathematical equality.
    """

    __slots__ = ("_entries", "_hash")

    def __init__(self, entries=()):
        if isinstance(entries, IntVector):
            self._entries = entries._entries
            self._hash = entries._hash
            return
        if isinstance(entries, dict) or isinstance(entries, Mapping):
            entries = entries.items()
        data = {}
        for name, coeff in entries:
            if not isinstance(name, str):
                raise TypeError("generator names must be strings, got %r" % (name,))
            if not isinstance(coeff, int) or isinstance(coeff, bool):
                raise TypeError("coefficients must be ints, got %r" % (coeff,))
            data[name] = data.get(name, 0) + coeff
        self._entries = {k: _ck(v) for k, v in data.items() if v}
        self._hash = None

    @classmethod
    def _of(cls, data: dict) -> "IntVector":
        """A vector from a dict already known to map names to ints: zeros
        are dropped and the range is checked, the type checks are not."""
        vec = object.__new__(cls)
        vec._entries = {k: _ck(v) for k, v in data.items() if v}
        vec._hash = None
        return vec

    @classmethod
    def unit(cls, name: str) -> "IntVector":
        if not isinstance(name, str):
            raise TypeError("generator names must be strings, got %r" % (name,))
        return cls._of({name: 1})

    def items(self) -> tuple:
        """Entries as (name, coefficient) pairs, sorted by name."""
        return tuple(sorted(self._entries.items()))

    def support(self) -> frozenset:
        return frozenset(self._entries)

    def __getitem__(self, name: str) -> int:
        return self._entries.get(name, 0)

    def __iter__(self):
        return iter(sorted(self._entries))

    def __len__(self):
        return len(self._entries)

    def is_zero(self) -> bool:
        return not self._entries

    def is_nonnegative(self) -> bool:
        return all(c > 0 for c in self._entries.values())

    def l1(self) -> int:
        return sum(abs(c) for c in self._entries.values())

    def positive_part(self) -> "IntVector":
        return IntVector._of({k: c for k, c in self._entries.items() if c > 0})

    def negative_part(self) -> "IntVector":
        """The vector n with self = positive_part - n; n has coefficients > 0."""
        return IntVector._of({k: -c for k, c in self._entries.items() if c < 0})

    def __add__(self, other: "IntVector") -> "IntVector":
        data = dict(self._entries)
        for k, c in other._entries.items():
            data[k] = data.get(k, 0) + c
        return IntVector._of(data)

    def __sub__(self, other: "IntVector") -> "IntVector":
        data = dict(self._entries)
        for k, c in other._entries.items():
            data[k] = data.get(k, 0) - c
        return IntVector._of(data)

    def __neg__(self) -> "IntVector":
        return IntVector._of({k: -c for k, c in self._entries.items()})

    def scaled(self, factor: int) -> "IntVector":
        if factor == 0:
            return IntVector()
        return IntVector._of({k: c * factor for k, c in self._entries.items()})

    def __eq__(self, other):
        if not isinstance(other, IntVector):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.items())
        return self._hash

    def __repr__(self):
        if not self._entries:
            return "IntVector()"
        body = " ".join(
            "%+d*%s" % (c, k) for k, c in sorted(self._entries.items())
        )
        return "IntVector(%s)" % body


ZERO = IntVector()


class IntMatrix:
    """Integer matrix with named, ordered rows and columns.

    Entries are stored sparsely; zero entries are dropped.
    """

    __slots__ = ("row_names", "col_names", "_entries")

    def __init__(self, row_names: Sequence[str], col_names: Sequence[str], entries=()):
        self.row_names = tuple(row_names)
        self.col_names = tuple(col_names)
        if len(set(self.row_names)) != len(self.row_names):
            raise ValueError("duplicate row names")
        if len(set(self.col_names)) != len(self.col_names):
            raise ValueError("duplicate column names")
        rows = set(self.row_names)
        cols = set(self.col_names)
        if isinstance(entries, Mapping):
            entries = entries.items()
        data = {}
        for (r, c), v in entries:
            if r not in rows or c not in cols:
                raise ValueError("entry (%r, %r) outside the declared index sets" % (r, c))
            if v:
                data[(r, c)] = _ck(v)
        self._entries = data

    @classmethod
    def identity(cls, names: Sequence[str]) -> "IntMatrix":
        names = tuple(names)
        return cls(names, names, {(n, n): 1 for n in names})

    @classmethod
    def from_dense(cls, dense, row_names=None, col_names=None) -> "IntMatrix":
        m = len(dense)
        n = len(dense[0]) if m else 0
        if any(len(row) != n for row in dense):
            raise ValueError("ragged dense matrix")
        if row_names is None:
            row_names = tuple("r%d" % i for i in range(m))
        if col_names is None:
            col_names = tuple("c%d" % j for j in range(n))
        entries = {}
        for i, rname in enumerate(row_names):
            for j, cname in enumerate(col_names):
                if dense[i][j]:
                    entries[(rname, cname)] = dense[i][j]
        return cls(row_names, col_names, entries)

    @property
    def shape(self):
        return (len(self.row_names), len(self.col_names))

    def entry(self, r: str, c: str) -> int:
        return self._entries.get((r, c), 0)

    def row(self, r: str) -> IntVector:
        return IntVector((c, v) for (ri, c), v in self._entries.items() if ri == r)

    def column(self, c: str) -> IntVector:
        return IntVector((r, v) for (r, ci), v in self._entries.items() if ci == c)

    def columns(self) -> dict:
        """Every column, keyed by its name, from one pass over the entries."""
        data = {c: {} for c in self.col_names}
        for (r, c), v in self._entries.items():
            data[c][r] = v
        return {c: IntVector._of(col) for c, col in data.items()}

    def to_dense(self):
        return [
            [self._entries.get((r, c), 0) for c in self.col_names]
            for r in self.row_names
        ]

    def apply(self, vector: IntVector) -> IntVector:
        """Matrix times column vector; the vector lives over the column names."""
        cols = set(self.col_names)
        for name in vector.support():
            if name not in cols:
                raise ValueError("vector entry %r outside the column names" % name)
        out = {}
        for (r, c), v in self._entries.items():
            coeff = vector[c]
            if coeff:
                out[r] = out.get(r, 0) + v * coeff
        return IntVector(out)

    def __eq__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return (
            self.row_names == other.row_names
            and self.col_names == other.col_names
            and self._entries == other._entries
        )

    def __hash__(self):
        return hash((self.row_names, self.col_names, tuple(sorted(self._entries.items()))))

    def __repr__(self):
        return "IntMatrix(%d x %d)" % self.shape


# ---------------------------------------------------------------------------
# dense helpers (plain lists of lists, used by the normal form machinery)

def _dense_identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    """Product of two dense integer matrices."""
    if a and b and len(a[0]) != len(b):
        raise ValueError("shape mismatch in matrix product")
    inner = len(b)
    cols = len(b[0]) if b else 0
    out = []
    for row in a:
        out_row = []
        for j in range(cols):
            s = 0
            for k in range(inner):
                s += row[k] * b[k][j]
            out_row.append(_ck(s))
        out.append(out_row)
    return out


def determinant(matrix) -> int:
    """Determinant of a square dense integer matrix (fraction-free Bareiss)."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("determinant needs a square matrix")
    if n == 0:
        return 1
    a = [list(row) for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = _ck((a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev)
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


@dataclass(frozen=True)
class SmithDecomposition:
    """U @ A @ V = D with U, V unimodular and D in Smith normal form.

    ``U_inv`` is carried along because quotient constructions need a section
    of the projection, and inverting U after the fact would just repeat the
    bookkeeping.
    """

    U: tuple
    D: tuple
    V: tuple
    U_inv: tuple

    @property
    def diagonal(self) -> tuple:
        return tuple(
            self.D[i][i] for i in range(min(len(self.D), len(self.D[0]) if self.D else 0))
        )

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d)


def smith_normal_form(matrix) -> SmithDecomposition:
    """Smith normal form of an integer matrix.

    Accepts an :class:`IntMatrix` or a dense list of rows.  The pivot is
    always the smallest nonzero absolute value of the remaining submatrix,
    ties broken by row then column, which makes the output reproducible.
    """
    if isinstance(matrix, IntMatrix):
        a = [list(row) for row in matrix.to_dense()]
        n = matrix.shape[1]
    else:
        a = [list(row) for row in matrix]
        n = len(a[0]) if a else 0
        if any(len(row) != n for row in a):
            raise ValueError("ragged input matrix")
    for row in a:
        for v in row:
            _ck(v)
    return _smith(a, n, keep_v=True)


def _smith(a, n, keep_v):
    """The normal form of the m x n dense matrix ``a``, reduced in place.

    Without ``keep_v`` the column transform is not tracked and ``V`` is
    empty; the quotients, which never read it, save most of the work."""
    m = len(a)
    U = _dense_identity(m)
    Ui = _dense_identity(m)
    V = _dense_identity(n) if keep_v else []

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        U[i], U[j] = U[j], U[i]
        for r in range(m):
            Ui[r][i], Ui[r][j] = Ui[r][j], Ui[r][i]

    def row_negate(i):
        a[i] = [-v for v in a[i]]
        U[i] = [-v for v in U[i]]
        for r in range(m):
            Ui[r][i] = -Ui[r][i]

    def row_addmul(i, j, q):
        # row_i += q * row_j
        a[i] = [_ck(x + q * y) for x, y in zip(a[i], a[j])]
        U[i] = [_ck(x + q * y) for x, y in zip(U[i], U[j])]
        for r in range(m):
            Ui[r][j] = _ck(Ui[r][j] - q * Ui[r][i])

    def col_swap(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def col_addmul(j, i, q):
        # col_j += q * col_i
        for row in a:
            row[j] = _ck(row[j] + q * row[i])
        for row in V:
            row[j] = _ck(row[j] + q * row[i])

    t = 0
    while t < m and t < n:
        # deterministic pivot: smallest |entry|, first by row then column
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                v = a[i][j]
                if v and (best is None or abs(v) < best):
                    best = abs(v)
                    pivot = (i, j)
        if pivot is None:
            break
        i, j = pivot
        if i != t:
            row_swap(t, i)
        if j != t:
            col_swap(t, j)
        if a[t][t] < 0:
            row_negate(t)
        p = a[t][t]

        dirty = False
        for i in range(t + 1, m):
            q = a[i][t] // p
            if q:
                row_addmul(i, t, -q)
            if a[i][t]:
                dirty = True
        for j in range(t + 1, n):
            q = a[t][j] // p
            if q:
                col_addmul(j, t, -q)
            if a[t][j]:
                dirty = True
        if dirty:
            continue  # smaller entries appeared; re-pick the pivot

        offender = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if a[i][j] % p:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_addmul(t, offender, 1)
            continue
        t += 1

    freeze = lambda mat: tuple(tuple(row) for row in mat)  # noqa: E731
    return SmithDecomposition(U=freeze(U), D=freeze(a), V=freeze(V), U_inv=freeze(Ui))


def unimodular_inverse(matrix):
    """Exact inverse of a square integer matrix, or None if not unimodular."""
    n = len(matrix)
    if n == 0:
        return []
    if any(len(row) != n for row in matrix):
        raise ValueError("inverse needs a square matrix")
    snf = smith_normal_form(matrix)
    if snf.diagonal != (1,) * n:
        return None
    # U A V = I  =>  A^{-1} = V U
    return mat_mul([list(r) for r in snf.V], [list(r) for r in snf.U])


# ---------------------------------------------------------------------------
# monoid coordinates

def monoid_coordinates(vector: IntVector, gens: Sequence[IntVector]):
    """Coefficients of the N-combination of ``gens`` equal to ``vector``.

    Returns a tuple of non-negative ints aligned with ``gens``, or None when
    no such combination exists.  Raises :class:`AmbiguousCoordinates` when
    more than one exists.

    The decision is exact on two input classes that cover every caller in
    this package: generators that are Z-linearly independent (unique integer
    solve, then a sign check) and generators that are entrywise
    non-negative (bounded exhaustive search).  Anything outside those
    classes would be general integer programming and is rejected.
    """
    gens = [IntVector(g) for g in gens]
    nz_idx = [i for i, g in enumerate(gens) if not g.is_zero()]
    work = [gens[i] for i in nz_idx]
    has_zero_gen = len(nz_idx) < len(gens)

    sol = _solve_monoid(IntVector(vector), work)
    if sol is None:
        return None
    if has_zero_gen:
        # a zero generator takes any coefficient once a solution exists
        raise AmbiguousCoordinates("zero generator admits arbitrary coefficients")
    out = [0] * len(gens)
    for i, c in zip(nz_idx, sol):
        out[i] = c
    return tuple(out)


def _solve_monoid(vector, gens):
    if not gens:
        return () if vector.is_zero() else None
    names = sorted(set().union(vector.support(), *[g.support() for g in gens]))
    dense = [[g[nm] for g in gens] for nm in names]
    snf = smith_normal_form(dense)
    k = len(gens)

    if snf.rank == k:
        # unique candidate over Z; check integrality then positivity
        v = [vector[nm] for nm in names]
        uv = [sum(snf.U[i][r] * v[r] for r in range(len(names))) for i in range(len(names))]
        diag = snf.diagonal
        z = []
        for i in range(k):
            if uv[i] % diag[i]:
                return None
            z.append(uv[i] // diag[i])
        if any(uv[i] for i in range(k, len(names))):
            return None
        coeffs = [sum(snf.V[i][j] * z[j] for j in range(k)) for i in range(k)]
        if any(c < 0 for c in coeffs):
            return None
        return tuple(coeffs)

    if all(g.is_nonnegative() for g in gens):
        return _search_monoid(vector, gens)

    raise NotImplementedError(
        "monoid coordinates with linearly dependent mixed-sign generators"
    )


def _search_monoid(vector, gens):
    """Exhaustive search, complete because all generators are non-negative."""
    solutions = []
    acc = [0] * len(gens)

    def rec(idx, residual):
        if len(solutions) >= 2:
            return
        if any(c < 0 for _, c in residual.items()):
            return
        if idx == len(gens):
            if residual.is_zero():
                solutions.append(tuple(acc))
            return
        g = gens[idx]
        bound = min(residual[nm] // g[nm] for nm in g.support())
        for c in range(bound + 1):
            acc[idx] = c
            rec(idx + 1, residual - g.scaled(c))
            if len(solutions) >= 2:
                return
        acc[idx] = 0

    rec(0, vector)
    if len(solutions) >= 2:
        raise AmbiguousCoordinates(
            "both %r and %r represent the vector" % (solutions[0], solutions[1])
        )
    return solutions[0] if solutions else None


# ---------------------------------------------------------------------------
# free quotients

@dataclass(frozen=True)
class QuotientBasis:
    """Free basis of Z[ambient]/<relations> plus the projection onto it.

    ``projection`` has one row per new basis name and one column per ambient
    name; the class of an ambient generator is the corresponding column.
    ``section`` is a right inverse of the projection, used to transport maps
    defined on the ambient group down to the quotient.
    """

    basis: tuple
    projection: IntMatrix
    section: IntMatrix

    def class_of(self, vector: IntVector) -> IntVector:
        return self.projection.apply(vector)


def quotient_free_basis(ambient: Sequence[str], relations: Iterable[IntVector],
                        name_prefix: str = "q") -> QuotientBasis:
    """Present Z[ambient]/<relations> by a free basis.

    Reduce, then take the Smith normal form.  Duplicate relations are
    dropped.  Each relation, once the generators eliminated so far are
    substituted into it, either vanishes, or has a coefficient +-1 and
    eliminates its last such generator (in ambient order), which is then
    substituted into the earlier eliminations too, or is set aside.  The
    dense normal form runs only on the set-aside relations, over the
    generators that survive.  Unit pivots are unimodular steps, so the
    invariant factors, and with them the rank and any torsion, are those
    of the whole relation matrix.

    Raises :class:`TorsionError` when the quotient has a finite part, since
    callers always expect a free group.
    """
    ambient = tuple(ambient)
    if len(set(ambient)) != len(ambient):
        raise ValueError("duplicate ambient generators")
    relations = list(dict.fromkeys(IntVector(r) for r in relations))
    position = {name: i for i, name in enumerate(ambient)}
    for r in relations:
        extra = [g for g in r._entries if g not in position]
        if extra:
            raise ValueError("relation mentions unknown generators %s" % sorted(extra))

    expr = {}  # eliminated generator -> its value over the surviving ones
    users = {}  # generator -> eliminated generators whose value mentions it
    set_aside = []
    for r in relations:
        row = _substitute(r._entries, expr)
        units = [g for g, c in row.items() if c == 1 or c == -1]
        if not units:
            if row:
                set_aside.append(row)
            continue
        g = max(units, key=position.__getitem__)
        sign = row.pop(g)
        value = {h: -sign * c for h, c in row.items()}
        for user in users.pop(g, ()):
            target = expr[user]
            coeff = target.pop(g, 0)
            if not coeff:
                continue  # cancelled out of this value since it was filed
            for h, c in value.items():
                total = _ck(target.get(h, 0) + _ck(coeff * c))
                if total:
                    target[h] = total
                    users.setdefault(h, {})[user] = None
                else:
                    target.pop(h, None)
        expr[g] = value
        for h in value:
            users.setdefault(h, {})[g] = None

    survivors = [g for g in ambient if g not in expr]
    remainder = [row for row in (_substitute(r, expr) for r in set_aside) if row]
    snf = _smith([[row.get(g, 0) for row in remainder] for g in survivors],
                 len(remainder), keep_v=False)
    diag = snf.diagonal
    for d in diag:
        if d not in (0, 1):
            raise TorsionError("invariant factor %d in quotient" % d)
    free = [i for i in range(len(survivors)) if i >= len(diag) or diag[i] == 0]
    basis = tuple("%s%d" % (name_prefix, k) for k in range(len(free)))

    classes = {}
    for j, g in enumerate(survivors):
        classes[g] = {b: snf.U[i][j] for b, i in zip(basis, free) if snf.U[i][j]}
    for g, value in expr.items():
        acc = {}
        for h, c in value.items():
            for b, v in classes[h].items():
                acc[b] = _ck(acc.get(b, 0) + _ck(c * v))
        classes[g] = acc
    proj_entries = {(b, g): v for g in ambient for b, v in classes[g].items() if v}
    sect_entries = {(g, b): snf.U_inv[j][i]
                    for b, i in zip(basis, free)
                    for j, g in enumerate(survivors) if snf.U_inv[j][i]}
    return QuotientBasis(
        basis=basis,
        projection=IntMatrix(basis, ambient, proj_entries),
        section=IntMatrix(ambient, basis, sect_entries),
    )


def _substitute(row: dict, expr: dict) -> dict:
    """``row`` with each eliminated generator replaced by its value."""
    out = {}
    for g, c in row.items():
        value = expr.get(g)
        if value is None:
            out[g] = _ck(out.get(g, 0) + c)
        else:
            for h, v in value.items():
                out[h] = _ck(out.get(h, 0) + _ck(c * v))
    return {g: c for g, c in out.items() if c}
