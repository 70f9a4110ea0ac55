"""Finite polygraph presentations and their linearization.

A presentation lists generators dimension by dimension; every generator of
positive dimension carries a source and a target expression one dimension
below.  Expressions are freely built from generators, identities and binary
compositions.  Construction checks names, dimensions, composability and the
parallelism of each source and target; it evaluates the boundaries to cell
tables over the linearized complex and reads the linearization off their top
rows.  The cell conditions and the chain complex laws then hold by
construction (see :meth:`PolyPresentation._check_boundaries`).

:func:`classify` gives every verdict on a presentation, with its witness:
atomicity, the two support preorders, algebraic loop-freeness and
orderability.  :func:`preorder_report` gives the two preorders' graphs.
Both read one analysis of the presentation (:func:`_analysis`): one walk of
the filed tables (:func:`_walk`) and the condensations of its full and
codim-1 graphs, taken on the first call of either and kept on the
presentation, so a later call, in either order, walks and condenses
nothing again.
"""

from __future__ import annotations

from bisect import insort
from collections import defaultdict
from collections.abc import Mapping, Sequence

from . import table
from .adc import (Adc, RelationGraph, _generating_successors, _name_levels,
                  antisymmetry_of)
from .zlin import IntVector, Record, _setattr


class InconsistentClassification(Exception):
    """The classification verdicts violate a proven implication."""

    code = "INCONSISTENT"


# ---------------------------------------------------------------------------
# cell expressions

class CellExpr(Record):
    """Base class for the expression language; see Gen, Id and Comp."""

    __slots__ = ()


class Gen(CellExpr):
    __slots__ = _fields = ("name",)

    def __init__(self, name: str):
        _setattr(self, "name", name)


class Id(CellExpr):
    __slots__ = _fields = ("inner",)

    def __init__(self, inner: CellExpr):
        _setattr(self, "inner", inner)


class Comp(CellExpr):
    """Composition of two equal-dimensional cells along a shared p-face."""

    __slots__ = _fields = ("level", "left", "right")

    def __init__(self, level: int, left: CellExpr, right: CellExpr):
        if not isinstance(level, int) or isinstance(level, bool):
            raise TypeError("composition level must be an int, got %r" % (level,))
        _setattr(self, "level", level)
        _setattr(self, "left", left)
        _setattr(self, "right", right)


class PolyPresentation:
    """A finite polygraph presentation.

    ``generators[q]`` lists the dimension-q generator names in declaration
    order; ``boundary`` maps each generator of dimension >= 1 to its
    (source, target) pair of expressions of the dimension below.

    A presentation is immutable: nothing changes it after construction, so
    what is derived from it (the filed tables, the linearization, and the
    preorder analysis of :func:`_analysis`, on first use) is kept on it.
    """

    def __init__(self, generators: Sequence[Sequence[str]],
                 boundary: Mapping[str, tuple]):
        levels = [tuple(level) for level in generators]
        while levels and not levels[-1]:
            levels.pop()
        self.generators = tuple(levels)
        self._dim = dim = _name_levels(self.generators)

        bnd = {}
        for name, pair in boundary.items():
            if name not in dim:
                raise ValueError("boundary given for unknown generator %r" % name)
            if dim[name] == 0:
                raise ValueError("dimension-0 generator %r cannot have a boundary" % name)
            try:
                src, tgt = pair
            except (TypeError, ValueError):
                raise ValueError("boundary of %r must be a (source, target) pair" % name)
            bnd[name] = (src, tgt)
        for q in range(1, len(self.generators)):
            for name in self.generators[q]:
                if name not in bnd:
                    raise ValueError("missing boundary for generator %r" % name)
        self._boundary = bnd

        for q in range(1, len(self.generators)):
            for name in self.generators[q]:
                src, tgt = bnd[name]
                for side, expr in (("source", src), ("target", tgt)):
                    d = expr_dim(self, expr)
                    if d != q - 1:
                        raise ValueError(
                            "%s of %r has dimension %d, expected %d"
                            % (side, name, d, q - 1)
                        )

        self._tables = {}  # generator -> its NuTable, filed at construction
        self._analysis = None  # the preorder analysis, on first use
        self._check_boundaries()

    # -- accessors ------------------------------------------------------

    @property
    def max_dim(self) -> int:
        return len(self.generators) - 1

    def dims(self, q: int) -> tuple:
        if 0 <= q < len(self.generators):
            return self.generators[q]
        return ()

    def all_generators(self):
        for level in self.generators:
            for name in level:
                yield name

    def dim_of(self, name: str) -> int:
        try:
            return self._dim[name]
        except KeyError:
            raise ValueError("unknown generator %r" % name) from None

    def boundary_of(self, name: str) -> tuple:
        if self.dim_of(name) == 0:
            raise ValueError("dimension-0 generator %r has no boundary" % name)
        return self._boundary[name]

    # -- construction-time checking --------------------------------------

    def _check_boundaries(self):
        """Evaluate every generator boundary to a table, file the generator's
        table for :func:`eval_table` and build the linearization, in one
        bottom-up pass, so a failure names the lowest generator responsible
        (the dimension check in ``__init__`` runs first, and wins).

        Only composability and the parallelism of source and target are
        checked.  A generator's table is the source's rows below its top, the
        two top rows, and its unit row; its differential is target top minus
        source top.  By induction on the dimension nothing else can fail:

        - a filed table is a cell: its lower rows are the source cell's, the
          top rows of parallel cells have equal boundaries, the unit row's
          boundary is the differential, and row 0 has augmentation 1;
        - identities and composites of cells are cells (nu of a complex is an
          omega-category: Steiner, "Omega-categories and chain complexes",
          HHA 2004), so every :func:`eval_table` result is a cell;
        - dd = 0 by parallelism, and eps d = 1 - 1 on an edge;
        - the top row of ``eval_table(e)`` is ``linearize(e)`` (a unit vector,
          0 for an identity, the sum for a composite below its top), so the
          differential is the linearized target minus the linearized source.

        Names and dimensions are checked already, so a generator side is
        read straight off its filed table, and ``Adc._of`` fills the
        linearization from these checked fields without validating them again.
        """
        tables, diff = self._tables, {}
        for name in self.dims(0):
            unit = IntVector.unit(name)
            tables[name] = table.NuTable(rows=((unit, unit),))
        for q in range(1, len(self.generators)):
            for name in self.generators[q]:
                src, tgt = self._boundary[name]
                try:
                    ts = tables[src.name] if src.__class__ is Gen else eval_table(self, src)
                    tt = tables[tgt.name] if tgt.__class__ is Gen else eval_table(self, tgt)
                except table.NotComposable as exc:
                    raise ValueError(
                        "boundary of %r is not composable: %s" % (name, exc)
                    ) from exc
                if ts.rows[:-1] != tt.rows[:-1]:
                    raise ValueError(
                        "source and target of %r are not parallel" % name
                    )
                s_top, t_top = ts.rows[-1][0], tt.rows[-1][0]
                diff[name] = t_top - s_top
                unit = IntVector.unit(name)
                tables[name] = table.NuTable(
                    rows=ts.rows[:-1] + ((s_top, t_top), (unit, unit)))
        self._lambda = Adc._of(self.generators, self._dim, diff,
                               dict.fromkeys(self.dims(0), 1))

    def __repr__(self):
        return "PolyPresentation(%s)" % ", ".join(
            "%d:%d" % (q, len(level)) for q, level in enumerate(self.generators)
        )


# ---------------------------------------------------------------------------
# expression-level operations

def expr_dim(pres: PolyPresentation, expr: CellExpr) -> int:
    if isinstance(expr, Gen):
        return pres.dim_of(expr.name)
    if isinstance(expr, Id):
        return expr_dim(pres, expr.inner) + 1
    if isinstance(expr, Comp):
        dl = expr_dim(pres, expr.left)
        dr = expr_dim(pres, expr.right)
        if dl != dr:
            raise ValueError(
                "composition of cells of different dimensions %d and %d" % (dl, dr)
            )
        if not 0 <= expr.level < dl:
            raise ValueError(
                "DIM: level-%d composition of %d-cells" % (expr.level, dl)
            )
        return dl
    raise TypeError("not a cell expression: %r" % (expr,))


def face_expr(pres: PolyPresentation, expr: CellExpr, p: int, sign: int) -> CellExpr:
    """The p-dimensional source (sign -1) or target (sign +1) of an expression."""
    if sign not in (-1, 1):
        raise ValueError("sign must be -1 or +1")
    q = expr_dim(pres, expr)
    if not 0 <= p < q:
        raise ValueError("DIM: face level %d out of range for a %d-cell" % (p, q))
    if isinstance(expr, Gen):
        side = pres.boundary_of(expr.name)[0 if sign < 0 else 1]
        if p == q - 1:
            return side
        return face_expr(pres, side, p, sign)
    if isinstance(expr, Id):
        if p == q - 1:
            return expr.inner
        return face_expr(pres, expr.inner, p, sign)
    # Comp
    if p <= expr.level:
        side = expr.left if sign < 0 else expr.right
        return face_expr(pres, side, p, sign)
    return Comp(expr.level,
                face_expr(pres, expr.left, p, sign),
                face_expr(pres, expr.right, p, sign))


def linearize(pres: PolyPresentation, expr: CellExpr) -> IntVector:
    """The class of an expression in the linearized complex.

    Generators map to basis vectors, identities to zero, compositions to
    sums.  The expression is checked by :func:`expr_dim` first.
    """
    expr_dim(pres, expr)

    def lin(e):
        if isinstance(e, Gen):
            return IntVector.unit(e.name)
        if isinstance(e, Id):
            return IntVector()
        return lin(e.left) + lin(e.right)

    return lin(expr)


def support_expr(pres: PolyPresentation, expr: CellExpr) -> frozenset:
    return linearize(pres, expr).support()


def lambda_presentation(pres: PolyPresentation) -> Adc:
    """The linearization: one basis element per generator, differential
    target-minus-source, augmentation 1 on every dimension-0 generator;
    built at construction from the evaluated boundary tables."""
    return pres._lambda


def eval_table(pres: PolyPresentation, expr: CellExpr) -> table.NuTable:
    """Evaluate an expression to a cell table over the linearization.

    A generator's table is filed at construction from its declared
    boundary expressions, not from the differential: the two agree unless
    the differential cancels (as it does for endo cells), and the declared
    boundaries are the ones the adjunction unit uses.
    """
    if isinstance(expr, Gen):
        filed = pres._tables.get(expr.name)
        if filed is None:
            pres.dim_of(expr.name)  # raises on an unknown name
            filed = pres._tables[expr.name]
        return filed
    if isinstance(expr, Id):
        return table.identity(eval_table(pres, expr.inner))
    if isinstance(expr, Comp):
        left = eval_table(pres, expr.left)
        right = eval_table(pres, expr.right)
        return table.compose(left, right, expr.level)
    raise TypeError("not a cell expression: %r" % (expr,))


# ---------------------------------------------------------------------------
# the walk of the filed tables

def _walk(pres: PolyPresentation) -> tuple:
    """One pass over the filed tables, each row's support taken once:
    ``(codim1, full, witness, succ)``.

    ``codim1`` and ``full`` are the codim-1 and full graphs as successor
    lists, and ``succ`` maps each generator to the generators it must be
    ordered before, as a set; a generator without any is left out.
    ``witness`` is the first atomicity witness in generator and level
    order, ``(generator, level, common support)``, or None.  Row p is in
    degree p, so no list repeats a name.
    """
    codim1, full, succ = defaultdict(list), defaultdict(list), defaultdict(set)
    witness = None
    for name in pres.all_generators():
        rows = pres._tables[name].rows
        for p in range(len(rows) - 1):
            src, tgt = rows[p][0]._entries, rows[p][1]._entries
            if witness is None and not src.keys().isdisjoint(tgt):
                witness = (name, p, frozenset(src).intersection(tgt))
            for graph in (full, codim1) if p == len(rows) - 2 else (full,):
                for a in src:
                    graph[a].append(name)
                if tgt:
                    graph[name].extend(tgt)
            if tgt:
                for a in src:
                    succ[a].update(tgt)
    return codim1, full, witness, succ


# ---------------------------------------------------------------------------
# the two categorical preorders

def _analysis(pres: PolyPresentation) -> tuple:
    """``(nodes, codim1, full, witness, succ, (okf, cycf), (ok1, cyc1))``:
    the generators in order, the walk (:func:`_walk`), and the full and
    codim-1 graphs' ``antisymmetry_of``.  The codim-1 graph lies inside the
    full one, so it is condensed only when the full one has a cycle.

    Taken on first use and kept on the presentation, which is immutable;
    :func:`classify` and :func:`preorder_report` both read it.  The lists
    Tarjan sorts in place are the ones both read, so their results do not
    depend on which is called first.
    """
    kept = pres._analysis
    if kept is None:
        codim1, full, witness, succ = _walk(pres)
        nodes = tuple(pres.all_generators())
        full_result = antisymmetry_of(nodes, full)
        codim1_result = (True, None) if full_result[0] else antisymmetry_of(nodes, codim1)
        kept = pres._analysis = (nodes, codim1, full, witness, succ, full_result,
                                 codim1_result)
    return kept


class PreorderReport(Record):
    __slots__ = _fields = ("codim1", "full", "codim1_antisymmetric", "codim1_cycle",
                           "full_antisymmetric", "full_cycle")

    def __init__(self, codim1: RelationGraph, full: RelationGraph,
                 codim1_antisymmetric: bool, codim1_cycle: tuple | None,
                 full_antisymmetric: bool, full_cycle: tuple | None):
        self._fill(codim1, full, codim1_antisymmetric, codim1_cycle,
                   full_antisymmetric, full_cycle)


def preorder_report(pres: PolyPresentation) -> PreorderReport:
    """Generating graphs of the two support preorders on the generators.

    The codimension-1 graph relates a generator to the supports of its
    immediate source and target; the full graph does the same for faces of
    every lower dimension.  Both are decided, and their edge sets read, off
    the one analysis :func:`classify` reads too (:func:`_analysis`), taken
    once and kept on the presentation; its atomicity witness and order
    constraints go unused here.
    """
    nodes, codim1, full, _, _, (okf, cycf), (ok1, cyc1) = _analysis(pres)
    return PreorderReport(RelationGraph.from_successors(nodes, codim1),
                          RelationGraph.from_successors(nodes, full), ok1, cyc1, okf, cycf)


# ---------------------------------------------------------------------------
# orderability in the sense of Steiner

def _order(nodes: tuple, succ: dict) -> tuple:
    """``(order, cycle)``: a linear order on all generators putting every
    face-source strictly below every face-target, at all levels below each
    generator, and None; or None and a constraint cycle, where length 1
    means a self-constraint.  Kahn's algorithm takes the earliest ready
    generator first."""
    for name in nodes:
        if name in succ.get(name, ()):
            return None, (name,)

    position = {name: i for i, name in enumerate(nodes)}
    indeg = {name: 0 for name in nodes}
    for after in succ.values():
        for b in after:
            indeg[b] += 1
    # Kahn, earliest first: ready positions negated and sorted, pop() earliest
    ready = [-i for i in range(len(nodes) - 1, -1, -1) if indeg[nodes[i]] == 0]
    order = []
    while ready:
        name = nodes[-ready.pop()]
        order.append(name)
        for b in succ.get(name, ()):
            indeg[b] -= 1
            if indeg[b] == 0:
                insort(ready, -position[b])
    if len(order) == len(nodes):
        return tuple(order), None

    # every stuck node keeps a predecessor among the stuck nodes, so walking
    # back through the earliest ones must close a cycle
    earliest = {}
    for a in nodes:
        for b in succ.get(a, ()) if indeg[a] else ():
            if indeg[b]:
                earliest.setdefault(b, a)
    seen = {}  # node -> its place on the walk
    node = next(name for name in nodes if indeg[name])
    while node not in seen:
        seen[node] = len(seen)
        node = earliest[node]
    return None, tuple(reversed(list(seen)[seen[node]:]))


# ---------------------------------------------------------------------------
# classification

class Verdict(Record):
    """Everything the classifiers can say about one presentation."""

    __slots__ = _fields = (
        "atomic", "atomic_witness", "codim1_antisymmetric", "codim1_cycle",
        "full_antisymmetric", "full_cycle", "strongly_loop_free_algebraic",
        "algebraic_cycle", "steiner_orderable", "steiner_order", "steiner_cycle")

    def __init__(self, atomic: bool, atomic_witness: tuple | None,
                 codim1_antisymmetric: bool, codim1_cycle: tuple | None,
                 full_antisymmetric: bool, full_cycle: tuple | None,
                 strongly_loop_free_algebraic: bool, algebraic_cycle: tuple | None,
                 steiner_orderable: bool, steiner_order: tuple | None,
                 steiner_cycle: tuple | None):
        self._fill(atomic, atomic_witness, codim1_antisymmetric, codim1_cycle,
                   full_antisymmetric, full_cycle, strongly_loop_free_algebraic,
                   algebraic_cycle, steiner_orderable, steiner_order, steiner_cycle)

    @property
    def strongly_loop_free_categorical(self) -> bool:
        return self.full_antisymmetric

    @property
    def strong_steiner(self) -> bool:
        return self.full_antisymmetric

    def as_dict(self) -> dict:
        """The fields and the two aliases, as ``check --json`` writes them:
        a tuple as a list, and the atomicity witness's support sorted."""
        out = {}
        for field in self._fields + ("strongly_loop_free_categorical", "strong_steiner"):
            value = getattr(self, field)
            if isinstance(value, tuple):
                value = [sorted(v) if isinstance(v, frozenset) else v for v in value]
            out[field] = value
        return out


def classify(pres: PolyPresentation) -> Verdict:
    """Run every classifier and cross-check the implications between them.

    One walk of the filed tables (:func:`_walk`) gives the atomicity
    witness, the orderability constraints and every graph but the
    algebraic one, as successor lists; the algebraic lists are read off the
    differentials of the linearization, as :func:`loop_free_report` reads
    them.
    The graphs nest, algebraic in codim-1 in full: the two parts of
    ``d x = top tt - top ts`` have supports inside those of the top rows,
    x's codim-1 row.  A graph inside an antisymmetric one is antisymmetric,
    so the full graph is condensed first (``antisymmetry_of``: one Tarjan
    over the lists, stopping at the first component of two or more), the
    codim-1 one only when the full one has a cycle, and the algebraic one
    only when the codim-1 one has.  The walk and the first two
    condensations are the presentation's analysis (:func:`_analysis`),
    taken once and kept, which :func:`preorder_report` reads as well.
    Ordering takes O(E + n log n) comparisons for E constraints on n
    generators.

    The implications (categorical loop-freeness forces atomicity and
    algebraic loop-freeness; atomic plus algebraic forces categorical) are
    theorems, so a violation means an implementation bug and raises
    :class:`InconsistentClassification`.  The second is checked as the
    nesting that the skips rely on.
    """
    nodes, codim1, _, witness, succ, (okf, cycf), (ok1, cyc1) = _analysis(pres)
    algebraic = _generating_successors(lambda_presentation(pres))
    if not all(set(codim1.get(u, ())).issuperset(vs) for u, vs in algebraic.items()):
        raise InconsistentClassification(
            "generating relation outside the codim-1 graph: %r"
            % sorted({(u, v) for u, vs in algebraic.items() for v in vs
                      if v not in codim1.get(u, ())}))
    alg_ok, alg_cycle = (True, None) if ok1 else antisymmetry_of(nodes, algebraic)
    order, order_cycle = _order(nodes, succ)
    if okf and witness is not None:
        raise InconsistentClassification(
            "categorically loop-free but not atomic: %r" % (witness,))
    if witness is None and alg_ok and not okf:
        raise InconsistentClassification(
            "atomic and algebraically loop-free but not categorically: %r" % (cycf,))
    return Verdict(witness is None, witness, ok1, cyc1, okf, cycf, alg_ok, alg_cycle,
                   order is not None, order, order_cycle)
