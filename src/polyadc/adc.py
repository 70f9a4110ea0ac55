"""Augmented directed chain complexes with a chosen generator basis.

A complex here is N-graded, finitely generated and free in every degree,
with a fixed ordered basis per degree.  The direction data (the positivity
cone) is the N-span of the chosen basis, so it never needs to be stored
separately: a chain is "positive" exactly when its coefficients are
non-negative.

A complex is strong Steiner when it is unital (:func:`unitality_failures`
is empty) and its generating relation induces a partial order
(:func:`loop_free_report`); :func:`is_strong_steiner_complex` decides both
at once.  Every loop-freeness check in the package runs one Tarjan over
successor lists (:func:`antisymmetry_of`).
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Mapping, Sequence

from .zlin import IntVector, Record, _ck


def _name_levels(levels: tuple) -> dict:
    """Each name of ``levels`` mapped to the index of its level; the names
    are checked in order, and the first bad or repeated one raises."""
    degree = {}
    for q, level in enumerate(levels):
        for name in level:
            if not isinstance(name, str) or not name:
                raise ValueError("generator names must be non-empty strings")
            if name in degree:
                raise ValueError("duplicate generator name %r" % name)
            degree[name] = q
    return degree


class Adc:
    """Finitely generated augmented directed complex.

    ``basis[q]`` lists the degree-q generator names in declaration order.
    ``differential`` maps every generator of degree >= 1 to a vector over
    the degree below; ``augmentation`` maps every degree-0 generator to an
    integer inside the checked 64-bit range (one outside it raises
    CoefficientOverflow).  Structural validity (name hygiene) is enforced
    here; the chain complex laws are checked separately by
    :func:`validate_adc` so a broken complex can still be constructed and
    reported on.
    """

    def __init__(self, basis: Sequence[Sequence[str]],
                 differential: Mapping[str, IntVector],
                 augmentation: Mapping[str, int]):
        levels = [tuple(level) for level in basis]
        while levels and not levels[-1]:
            levels.pop()
        levels = tuple(levels)
        degree = _name_levels(levels)

        diff = {}
        for name, vec in differential.items():
            if name not in degree:
                raise ValueError("differential given for unknown generator %r" % name)
            q = degree[name]
            if q == 0:
                raise ValueError("degree-0 generator %r cannot have a differential" % name)
            vec = IntVector(vec)
            extra = [g for g in vec._entries if degree.get(g) != q - 1]
            if extra:
                raise ValueError(
                    "differential of %r mentions non-generators %s" % (name, sorted(extra))
                )
            diff[name] = vec
        for q in range(1, len(levels)):
            for name in levels[q]:
                if name not in diff:
                    raise ValueError("missing differential for generator %r" % name)

        aug = {}
        for name, val in augmentation.items():
            if name not in degree or degree[name] != 0:
                raise ValueError("augmentation given for non-degree-0 name %r" % name)
            if not isinstance(val, int) or isinstance(val, bool):
                raise ValueError("augmentation of %r must be an int" % name)
            aug[name] = _ck(val)
        if levels:
            for name in levels[0]:
                if name not in aug:
                    raise ValueError("missing augmentation for generator %r" % name)
        self._fill(levels, degree, diff, aug)

    @classmethod
    def _of(cls, basis: tuple, degree: dict, diff: dict, aug: dict) -> "Adc":
        """The complex on fields already known valid, taken as they stand,
        as ``__init__`` would set them after its checks: ``basis`` a tuple of
        name tuples, the last not empty, and ``degree`` each name's level."""
        complex_ = object.__new__(cls)
        complex_._fill(basis, degree, diff, aug)
        return complex_

    def _fill(self, basis, degree, diff, aug):
        """Set the fields; the one place both constructors set them."""
        self.basis = basis
        self._degree = degree
        self._diff = diff
        self._aug = aug
        self._atom_tables = {}  # name -> (rows, fault, row-0 augmentations)
        self._terms = {}  # name -> sorted items of its differential, on first use

    # -- basic accessors ----------------------------------------------------

    @property
    def max_degree(self) -> int:
        return len(self.basis) - 1

    def generators(self, q: int) -> tuple:
        if 0 <= q < len(self.basis):
            return self.basis[q]
        return ()

    def all_generators(self):
        """All generator names in (degree, declaration) order."""
        for level in self.basis:
            for name in level:
                yield name

    def degree_of(self, name: str) -> int:
        try:
            return self._degree[name]
        except KeyError:
            raise ValueError("unknown generator %r" % name) from None

    def diff(self, name: str) -> IntVector:
        if self.degree_of(name) == 0:
            raise ValueError("degree-0 generator %r has no differential" % name)
        return self._diff[name]

    def eps_gen(self, name: str) -> int:
        if self.degree_of(name) != 0:
            raise ValueError("augmentation is only defined in degree 0")
        return self._aug[name]

    def boundary_vec(self, q: int, vector: IntVector) -> IntVector:
        """The boundary of a degree-q vector: the one boundary kernel.

        The terms are taken in name order, the vector's and each
        differential's, and ``_ck`` checks every product and every partial
        sum, so the order decides whether and where CoefficientOverflow is
        raised.  Each generator's differential is sorted once, on first
        use, and kept on the complex.
        """
        if q < 1:
            raise ValueError("boundary is only defined in degree >= 1")
        terms = self._terms
        acc = {}
        entries = vector._entries.items()
        for name, coeff in sorted(entries) if len(entries) > 1 else entries:
            d = terms.get(name)
            if d is None:
                d = terms[name] = self._diff[name].items()
            for below, c in d:
                acc[below] = _ck(acc.get(below, 0) + _ck(coeff * c))
        return IntVector._of(acc)

    def eps(self, vector: IntVector) -> int:
        """The augmentation of a degree-0 vector.

        As in :meth:`boundary_vec`, the terms are taken in name order and
        ``_ck`` checks every product and every partial sum, so a sum that
        leaves the checked 64-bit range raises CoefficientOverflow.
        """
        aug = self._aug
        total = 0
        entries = vector._entries.items()
        for name, coeff in sorted(entries) if len(entries) > 1 else entries:
            total = _ck(total + _ck(aug[name] * coeff))
        return total

    def chain(self, q: int, vector) -> IntVector:
        """The vector over the degree-q generators, checked to mention no
        other name."""
        vec = IntVector(vector)
        extra = [g for g in vec._entries if self._degree.get(g) != q]
        if extra:
            raise ValueError("chain mentions non-generators %s in degree %d"
                             % (sorted(extra), q))
        return vec

    def __eq__(self, other):
        if not isinstance(other, Adc):
            return NotImplemented
        return (self.basis == other.basis and self._diff == other._diff
                and self._aug == other._aug)

    def __repr__(self):
        return "Adc(%s)" % ", ".join(
            "%d:%d" % (q, len(level)) for q, level in enumerate(self.basis)
        )


# ---------------------------------------------------------------------------
# validation

class AdcValidation(Record):
    __slots__ = _fields = ("ok", "failures")

    def __init__(self, ok: bool, failures: tuple):  # of (law, generator, detail)
        self._fill(ok, failures)


def validate_adc(complex_: Adc) -> AdcValidation:
    """Check d(d(b)) = 0 and eps(d(b)) = 0 on every generator."""
    failures = tuple(_law_failures(complex_))
    return AdcValidation(ok=not failures, failures=failures)


def _law_failures(complex_: Adc):
    """The failures :func:`validate_adc` reports, in its order, computed one
    at a time: dd on each generator of degree >= 2, then eps-d on each edge."""
    for q in range(2, len(complex_.basis)):
        for name in complex_.basis[q]:
            dd = complex_.boundary_vec(q - 1, complex_._diff[name])
            if not dd.is_zero():
                yield ("dd", name, repr(dd))
    for name in complex_.generators(1):
        e = complex_.eps(complex_._diff[name])
        if e != 0:
            yield ("eps-d", name, str(e))


def _require_chain_complex(complex_: Adc) -> None:
    """Raise ValueError naming the first failure of :func:`validate_adc`,
    as ``not a chain complex: <law> = 0 fails at <generator> (<value>)``;
    the parser and the enumeration refuse a broken complex with it."""
    failure = next(_law_failures(complex_), None)
    if failure is not None:
        law, name, value = failure
        raise ValueError("not a chain complex: %s = 0 fails at %r (%s)"
                         % (law, name, value))


def _require_adc(complex_) -> None:
    """Refuse anything but an :class:`Adc` with TypeError."""
    if not isinstance(complex_, Adc):
        raise TypeError("expected an Adc, got %s; linearize a presentation with "
                        "lambda_presentation first" % type(complex_).__name__)


# ---------------------------------------------------------------------------
# atoms

def _atom(complex_: Adc, name: str) -> tuple:
    """(rows, fault, (eps of neg_0, eps of pos_0)) of a generator's atom
    table, built once per complex and read by every atom accessor.

    ``fault`` is the first cell condition the table violates, or None,
    numbered as in :func:`polyadc.table.is_valid_table`.  Positivity (1) and
    equal top rows (4) hold by construction.  The boundary condition (2)
    holds exactly when the two rows of each degree p >= 1 have one
    boundary, which building the rows computes anyway, and the
    augmentation (3) is read off row 0.  A 0-generator's row is its unit
    vector on both sides, so its two augmentations are the one it was
    given; above degree 0 they are summed off row 0.
    """
    kept = complex_._atom_tables.get(name)
    if kept is not None:
        return kept
    q = complex_.degree_of(name)
    top = IntVector._of({name: 1})
    rows = [(top, top)]  # top row first, reversed at the end
    fault = None
    if q:
        d = complex_._diff[name]  # the boundary of the unit row
        rows.append((d.negative_part(), d.positive_part()))
    for p in range(q - 2, -1, -1):
        neg_above, pos_above = rows[-1]
        d_neg = complex_.boundary_vec(p + 1, neg_above)
        d_pos = complex_.boundary_vec(p + 1, pos_above)
        if d_pos != d_neg:
            fault = 2
        rows.append((d_neg.negative_part(), d_pos.positive_part()))
    rows.reverse()
    if q:
        neg0, pos0 = rows[0]
        augmentations = complex_.eps(neg0), complex_.eps(pos0)
    else:
        augmentations = (complex_._aug[name],) * 2
    if fault is None and augmentations != (1, 1):
        fault = 3
    kept = complex_._atom_tables[name] = (tuple(rows), fault, augmentations)
    return kept


# ---------------------------------------------------------------------------
# unitality

def unitality_failures(complex_: Adc) -> tuple:
    """Generators whose atom rows fail eps = 1 in degree 0."""
    failures = []
    for name in complex_.all_generators():
        en, ep = _atom(complex_, name)[2]
        if en != 1 or ep != 1:
            failures.append((name, en, ep))
    return tuple(failures)


# ---------------------------------------------------------------------------
# the generating relation and loop-freeness

class RelationGraph(Record):
    """A directed graph on generator names, in a fixed node order, as a
    report gives it.  The checks run on successor lists
    (:func:`antisymmetry_of`), not on the edge set."""

    __slots__ = _fields = ("nodes", "edges")

    def __init__(self, nodes: tuple, edges: frozenset):  # of (source, target) pairs
        self._fill(nodes, edges)

    @classmethod
    def from_successors(cls, nodes: tuple, succ: Mapping) -> "RelationGraph":
        """The graph whose edges are read off a map from node to successors."""
        return cls(nodes, frozenset([(u, v) for u, vs in succ.items() for v in vs]))


def _tarjan(nodes: tuple, succ: Mapping):
    """The first strongly connected component of two or more nodes, or
    None (Tarjan, SIAM J. Comput. 1972), in one loop over an explicit
    stack whose bottom frame walks the roots in node order.  ``succ`` maps
    a node to its successor list, sorted in place on first reaching the
    node, or leaves it out.  A component closes root first.  ``low`` holds
    an open node's low-link and ``done`` for a closed one."""
    low, stack, done = {None: -1}, [], len(nodes) + 1
    work = [(None, iter(nodes), -1, 0)]  # node, its successors, index, stack height
    while True:
        node, it, at, height = work[-1]
        for child in it:
            seen = low.get(child)
            if seen is None:
                below = succ.get(child, [])
                low[child] = seen = len(low)
                below.sort()
                work.append((child, iter(below), seen, len(stack)))
                stack.append(child)
                break
            if seen < low[node]:
                low[node] = seen
        else:
            work.pop()
            if node is None:
                return None
            lowest = low[node]
            if lowest != at:
                parent = work[-1][0]
                if lowest < low[parent]:
                    low[parent] = lowest
            elif len(stack) - height > 1:
                return tuple(stack[height:])
            else:
                low[stack.pop()] = done


def _cycle_in(succ: Mapping, members: set, start) -> tuple:
    """The shortest path from ``start`` back to it through at least one
    other node, inside ``members`` (a direct self-loop would not witness
    a cycle of length >= 2)."""
    parents = {}
    frontier = [start]
    while frontier and start not in parents:
        nxt = []
        for u in frontier:
            for v in succ[u]:
                if v in members and v not in parents and v != u:
                    parents[v] = u
                    nxt.append(v)
        frontier = nxt
    path = [start]
    while parents[path[-1]] != start:
        path.append(parents[path[-1]])
    return tuple(reversed(path))


def antisymmetry_of(nodes: tuple, succ: Mapping) -> tuple:
    """(True, None) when the reachability preorder of a successor map, as
    :func:`_tarjan` takes it, is a partial order, otherwise (False, a
    witness cycle of length >= 2 from the root of the first component of
    two or more nodes).  The lists :func:`_tarjan` sorts include that
    component's, so the witness is the one the sorted edge set gives."""
    comp = _tarjan(nodes, succ)
    if comp is None:
        return True, None
    return False, _cycle_in(succ, set(comp), comp[0])


class LoopFreeReport(Record):
    __slots__ = _fields = ("graph", "is_partial_order", "cycle")

    def __init__(self, graph: RelationGraph, is_partial_order: bool,
                 cycle: tuple | None):
        self._fill(graph, is_partial_order, cycle)


def _generating_successors(complex_: Adc) -> dict:
    # each edge is read once, off the differential of its higher end
    succ = defaultdict(list)
    for name, d in complex_._diff.items():
        for a, c in d._entries.items():
            if c < 0:
                succ[a].append(name)
            else:
                succ[name].append(a)
    return succ


def loop_free_report(complex_: Adc) -> LoopFreeReport:
    """The relation on basis elements generated by the differentials, and
    whether it induces a partial order.

    a precedes b when a appears in the negative part of d(b); a precedes b
    when b appears in the positive part of d(a).
    """
    succ = _generating_successors(complex_)
    graph = RelationGraph.from_successors(tuple(complex_.all_generators()), succ)
    return LoopFreeReport(graph, *antisymmetry_of(graph.nodes, succ))


def is_strong_steiner_complex(complex_: Adc) -> bool:
    """Every atom table is a cell and the generating relation induces a
    partial order, decided on its successor lists without building the
    edge set.

    The atoms' faults are the ones their tables record (:func:`_atom`): a
    fault-free atom has augmentations 1, so the complex is unital, and a
    complex whose atoms are all fault-free is a chain complex (a dd
    failure gives some atom two rows with different boundaries, and an
    eps-d failure an edge with unequal augmentations).  Anything but an
    :class:`Adc` raises TypeError.
    """
    _require_adc(complex_)
    return (all(_atom(complex_, name)[1] is None for name in complex_.all_generators())
            and antisymmetry_of(tuple(complex_.all_generators()),
                                _generating_successors(complex_))[0])
