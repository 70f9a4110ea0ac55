"""Dense integer matrices and the algebra built on them.

Determinants, the Smith normal form with its unimodular transforms,
unimodular inverses, coordinates over submonoids and free quotients.  A
matrix is a dense list of rows; a quotient hands back its projection and
its section as columns, one :class:`~polyadc.zlin.IntVector` per ambient
name and per basis name.  The vectors, the 64-bit check and the
exceptions are :mod:`polyadc.zlin`'s.
Its readers are the explicit quotient and the basis check of
:mod:`polyadc.roundtrip` (the certificate needs no matrix) and the tests;
no subcommand of the command line loads it.
:mod:`polyadc.zlin` serves its public names as well, loading it on the
first such lookup.

The Smith normal form is deliberately pedestrian: deterministic pivoting
(smallest absolute value, ties broken by row then column), explicit
unimodular bookkeeping, and a divisibility fix-up loop.  Quotients do not
feed it the whole relation matrix: they first reduce, eliminating one
generator for every relation with a coefficient of +-1 by sparse
substitution, and run the dense normal form only on the few relations
left (reduce-then-SNF, as in Kaczynski, Mrozek and Slusarek 1998).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .zlin import AmbiguousCoordinates, IntVector, Record, TorsionError, _ck


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


class SmithDecomposition(Record):
    """U @ A @ V = D with U, V unimodular and D in Smith normal form.

    ``U_inv`` is carried along because quotient constructions need a section
    of the projection, and inverting U after the fact would just repeat the
    bookkeeping.
    """

    __slots__ = _fields = ("U", "D", "V", "U_inv")

    def __init__(self, U: tuple, D: tuple, V: tuple, U_inv: tuple):
        self._fill(U, D, V, U_inv)

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

    Takes a dense list of rows.  The pivot is always the smallest nonzero
    absolute value of the remaining submatrix, ties broken by row then
    column, which makes the output reproducible.
    """
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

class QuotientBasis(Record):
    """Free basis of Z[ambient]/<relations> plus the projection onto it.

    ``projection`` maps each ambient name, in ambient order, to its class,
    a vector over the basis names.  ``section`` maps each basis name, in
    basis order, to a vector over the ambient names; it is a right inverse
    of the projection, used to transport maps defined on the ambient group
    down to the quotient.
    """

    __slots__ = _fields = ("basis", "projection", "section")

    def __init__(self, basis: tuple, projection: dict, section: dict):
        self._fill(basis, projection, section)

    def class_of(self, vector: IntVector) -> IntVector:
        """The sum of the classes of the vector's names, scaled by its
        coefficients; a name outside the ambient raises ValueError."""
        for name in vector._entries:
            if name not in self.projection:
                raise ValueError("vector entry %r outside the ambient names" % name)
        out = {}
        for name, coeff in vector._entries.items():
            for b, v in self.projection[name]._entries.items():
                out[b] = _ck(out.get(b, 0) + _ck(v * coeff))
        return IntVector._of(out)


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
    return QuotientBasis(
        basis=basis,
        projection={g: IntVector._of(classes[g]) for g in ambient},
        section={b: IntVector._of({g: snf.U_inv[j][i] for j, g in enumerate(survivors)})
                 for b, i in zip(basis, free)},
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
