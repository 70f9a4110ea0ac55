"""Augmented directed chain complexes with a chosen generator basis.

A complex here is N-graded, finitely generated and free in every degree,
with a fixed ordered basis per degree.  The direction data (the positivity
cone) is the N-span of the chosen basis, so it never needs to be stored
separately: a chain is "positive" exactly when its coefficients are
non-negative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .zlin import IntVector, _ck


@dataclass(frozen=True)
class Chain:
    """A degree together with a vector over that degree's generators."""

    degree: int
    vector: IntVector

    def support(self) -> frozenset:
        return self.vector.support()

    def is_zero(self) -> bool:
        return self.vector.is_zero()


class Adc:
    """Finitely generated augmented directed complex.

    ``basis[q]`` lists the degree-q generator names in declaration order.
    ``differential`` maps every generator of degree >= 1 to a vector over
    the degree below; ``augmentation`` maps every degree-0 generator to an
    integer.  Structural validity (name hygiene) is enforced here; the
    chain complex laws are checked separately by :func:`validate_adc` so a
    broken complex can still be constructed and reported on.
    """

    def __init__(self, basis: Sequence[Sequence[str]],
                 differential: Mapping[str, IntVector],
                 augmentation: Mapping[str, int]):
        levels = [tuple(level) for level in basis]
        while levels and not levels[-1]:
            levels.pop()
        self.basis = tuple(levels)
        degree = {}
        for q, level in enumerate(self.basis):
            for name in level:
                if not isinstance(name, str) or not name:
                    raise ValueError("generator names must be non-empty strings")
                if name in degree:
                    raise ValueError("duplicate generator name %r" % name)
                degree[name] = q
        self._degree = degree

        diff = {}
        for name, vec in differential.items():
            if name not in degree:
                raise ValueError("differential given for unknown generator %r" % name)
            q = degree[name]
            if q == 0:
                raise ValueError("degree-0 generator %r cannot have a differential" % name)
            vec = IntVector(vec)
            below = set(self.basis[q - 1])
            extra = vec.support() - below
            if extra:
                raise ValueError(
                    "differential of %r mentions non-generators %s" % (name, sorted(extra))
                )
            diff[name] = vec
        for q in range(1, len(self.basis)):
            for name in self.basis[q]:
                if name not in diff:
                    raise ValueError("missing differential for generator %r" % name)
        self._diff = diff

        aug = {}
        for name, val in augmentation.items():
            if name not in degree or degree[name] != 0:
                raise ValueError("augmentation given for non-degree-0 name %r" % name)
            if not isinstance(val, int) or isinstance(val, bool):
                raise ValueError("augmentation of %r must be an int" % name)
            aug[name] = val
        if self.basis:
            for name in self.basis[0]:
                if name not in aug:
                    raise ValueError("missing augmentation for generator %r" % name)
        self._aug = aug
        self._atom_tables = {}  # name -> (rows, fault), filled by atom_table

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

    def boundary(self, chain: Chain) -> Chain:
        if chain.degree < 1:
            raise ValueError("boundary is only defined in degree >= 1")
        acc = {}
        for name, coeff in chain.vector.items():
            for below, c in self._diff[name].items():
                acc[below] = _ck(acc.get(below, 0) + _ck(coeff * c))
        return Chain(chain.degree - 1, IntVector._of(acc))

    def boundary_vec(self, q: int, vector: IntVector) -> IntVector:
        return self.boundary(Chain(q, vector)).vector

    def eps(self, vector: IntVector) -> int:
        return sum(self._aug[name] * coeff for name, coeff in vector.items())

    def chain(self, q: int, vector) -> Chain:
        vec = IntVector(vector)
        extra = vec.support() - set(self.generators(q))
        if extra:
            raise ValueError("chain mentions non-generators %s in degree %d"
                             % (sorted(extra), q))
        return Chain(q, vec)

    def __eq__(self, other):
        if not isinstance(other, Adc):
            return NotImplemented
        return (self.basis == other.basis and self._diff == other._diff
                and self._aug == other._aug)

    def __repr__(self):
        return "Adc(%s)" % ", ".join(
            "%d:%d" % (q, len(level)) for q, level in enumerate(self.basis)
        )


def truncate_adc(complex_: Adc, n: int) -> Adc:
    """The complex restricted to degrees <= n."""
    if n < -1:
        raise ValueError("truncation degree must be >= -1")
    basis = complex_.basis[: n + 1]
    keep = {name for level in basis for name in level}
    diff = {name: complex_.diff(name)
            for q in range(1, len(basis)) for name in basis[q]}
    aug = {name: complex_.eps_gen(name) for name in (basis[0] if basis else ())}
    return Adc(basis, diff, aug)


# ---------------------------------------------------------------------------
# validation

@dataclass(frozen=True)
class AdcValidation:
    ok: bool
    failures: tuple  # (law, generator, detail)


def validate_adc(complex_: Adc) -> AdcValidation:
    """Check d(d(b)) = 0 and eps(d(b)) = 0 on every generator."""
    failures = []
    for q in range(2, len(complex_.basis)):
        for name in complex_.basis[q]:
            dd = complex_.boundary_vec(q - 1, complex_.diff(name))
            if not dd.is_zero():
                failures.append(("dd", name, repr(dd)))
    if len(complex_.basis) >= 2:
        for name in complex_.basis[1]:
            e = complex_.eps(complex_.diff(name))
            if e != 0:
                failures.append(("eps-d", name, str(e)))
    return AdcValidation(ok=not failures, failures=tuple(failures))


# ---------------------------------------------------------------------------
# canonical decomposition and atoms

@dataclass(frozen=True)
class Decomposition:
    """c = positive - negative with both parts in the positivity cone."""

    positive: Chain
    negative: Chain

    @property
    def positive_support(self) -> frozenset:
        return self.positive.support()

    @property
    def negative_support(self) -> frozenset:
        return self.negative.support()

    @property
    def support(self) -> frozenset:
        return self.positive_support | self.negative_support


def decompose(complex_: Adc, chain: Chain) -> Decomposition:
    chain = complex_.chain(chain.degree, chain.vector)
    return Decomposition(
        positive=Chain(chain.degree, chain.vector.positive_part()),
        negative=Chain(chain.degree, chain.vector.negative_part()),
    )


def atom_table(complex_: Adc, name: str) -> tuple:
    """The rows of the source/target table spanned by a single generator.

    ``rows[p]`` holds the pair (negative row, positive row) in degree p,
    for p from 0 up to the generator's dimension.  The complex does not
    change, so each generator's rows are built once and kept on it.
    """
    return _atom(complex_, name)[0]


def atom_fault(complex_: Adc, name: str) -> int | None:
    """The first cell condition the atom table of ``name`` violates, or None.

    The conditions are numbered as in :func:`polyadc.nu.is_valid_table`.
    Positivity (1) and equal top rows (4) hold by construction.  The
    boundary condition (2) holds exactly when the two rows of each degree
    p >= 1 have one boundary, which building the rows computes anyway, and
    the augmentation (3) is read off row 0.
    """
    return _atom(complex_, name)[1]


def _atom(complex_: Adc, name: str) -> tuple:
    """(rows, fault) of a generator's atom table, built once per complex."""
    kept = complex_._atom_tables.get(name)
    if kept is not None:
        return kept
    q = complex_.degree_of(name)
    top = IntVector.unit(name)
    rows = [(top, top)]
    fault = None
    for p in range(q - 1, -1, -1):
        neg_above, pos_above = rows[0]
        d_neg = complex_.boundary_vec(p + 1, neg_above)
        if pos_above is neg_above:
            d_pos = d_neg
        else:
            d_pos = complex_.boundary_vec(p + 1, pos_above)
            if d_pos != d_neg:
                fault = 2
        rows.insert(0, (d_neg.negative_part(), d_pos.positive_part()))
    neg0, pos0 = rows[0]
    if fault is None and (complex_.eps(neg0) != 1 or complex_.eps(pos0) != 1):
        fault = 3
    kept = complex_._atom_tables[name] = (tuple(rows), fault)
    return kept


# ---------------------------------------------------------------------------
# unitality

def unitality_failures(complex_: Adc) -> tuple:
    """Generators whose atom rows fail eps = 1 in degree 0."""
    failures = []
    for name in complex_.all_generators():
        neg0, pos0 = atom_table(complex_, name)[0]
        en = complex_.eps(neg0)
        ep = complex_.eps(pos0)
        if en != 1 or ep != 1:
            failures.append((name, en, ep))
    return tuple(failures)


def is_unital(complex_: Adc) -> bool:
    return not unitality_failures(complex_)


# ---------------------------------------------------------------------------
# the generating relation and loop-freeness

@dataclass(frozen=True)
class RelationGraph:
    """A directed graph on generator names, in a fixed node order."""

    nodes: tuple
    edges: frozenset  # of (source, target) pairs

    def successors(self):
        succ = {n: [] for n in self.nodes}
        for u, v in sorted(self.edges):
            succ[u].append(v)
        return succ

    def sccs(self) -> tuple:
        """Strongly connected components (Tarjan, iterative), as tuples."""
        succ = self.successors()
        index = {}
        low = {}
        on_stack = set()
        stack = []
        out = []
        counter = [0]

        for root in self.nodes:
            if root in index:
                continue
            work = [(root, iter(succ[root]))]
            index[root] = low[root] = counter[0]
            counter[0] += 1
            stack.append(root)
            on_stack.add(root)
            while work:
                node, it = work[-1]
                advanced = False
                for child in it:
                    if child not in index:
                        index[child] = low[child] = counter[0]
                        counter[0] += 1
                        stack.append(child)
                        on_stack.add(child)
                        work.append((child, iter(succ[child])))
                        advanced = True
                        break
                    if child in on_stack:
                        low[node] = min(low[node], index[child])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        comp.append(w)
                        if w == node:
                            break
                    out.append(tuple(reversed(comp)))
        return tuple(out)

    def antisymmetry(self):
        """(True, None) when the reachability preorder is a partial order,
        otherwise (False, witness cycle of length >= 2)."""
        for comp in self.sccs():
            if len(comp) >= 2:
                return False, self._cycle_in(set(comp), comp[0])
        return True, None

    def _cycle_in(self, members, start):
        succ = self.successors()
        # shortest path start -> start through at least one other node,
        # inside members (a direct self-loop would not witness length >= 2)
        parents = {}
        frontier = [v for v in succ[start] if v in members and v != start]
        for v in frontier:
            parents.setdefault(v, start)
        while frontier:
            if start in parents:
                break
            nxt = []
            for u in frontier:
                for v in succ[u]:
                    if v in members and v not in parents:
                        parents[v] = u
                        nxt.append(v)
            frontier = nxt
        path = [start]
        node = parents[start]
        while node != start:
            path.append(node)
            node = parents[node]
        path.reverse()
        return tuple(path)

    def transitive_closure(self) -> frozenset:
        """All pairs (u, v) with a directed path of length >= 1 from u to v."""
        succ = self.successors()
        pairs = set()
        for u in self.nodes:
            seen = set()
            frontier = list(succ[u])
            while frontier:
                v = frontier.pop()
                if v in seen:
                    continue
                seen.add(v)
                frontier.extend(succ[v])
            pairs.update((u, v) for v in seen)
        return frozenset(pairs)


@dataclass(frozen=True)
class LoopFreeReport:
    graph: RelationGraph
    is_partial_order: bool
    cycle: tuple | None


def generating_relation(complex_: Adc) -> RelationGraph:
    """The relation on basis elements generated by the differentials.

    a precedes b when a appears in the negative part of d(b); a precedes b
    when b appears in the positive part of d(a).
    """
    nodes = tuple(complex_.all_generators())
    edges = set()
    for q in range(1, len(complex_.basis)):
        for name in complex_.basis[q]:
            d = complex_.diff(name)
            for a in d.negative_part().support():
                edges.add((a, name))
            for b in d.positive_part().support():
                edges.add((name, b))
    return RelationGraph(nodes=nodes, edges=frozenset(edges))


def loop_free_report(complex_: Adc) -> LoopFreeReport:
    graph = generating_relation(complex_)
    ok, cycle = graph.antisymmetry()
    return LoopFreeReport(graph=graph, is_partial_order=ok, cycle=cycle)


def is_strong_steiner_complex(complex_: Adc) -> bool:
    """Unital and the generating relation induces a partial order."""
    return is_unital(complex_) and loop_free_report(complex_).is_partial_order
