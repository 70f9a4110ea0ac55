"""Shared helpers: a seeded presentation generator, a Smith-form oracle,
the reference checks of a presentation's linearization, the reference
condensation of a relation graph and the reference closure loop."""

from __future__ import annotations

import random
from collections import deque
from itertools import combinations
from math import gcd

from polyadc import (
    Adc,
    Comp,
    Gen,
    Id,
    PolyPresentation,
    build,
    determinant,
    eval_table,
    is_valid_table,
    lambda_presentation,
    linearize,
    validate_adc,
)
from polyadc import nu


def minors_diagonal(dense):
    """Smith diagonal predicted by gcds of k x k minors (independent oracle)."""
    m = len(dense)
    n = len(dense[0]) if dense else 0
    diag = []
    prev = 1
    for k in range(1, min(m, n) + 1):
        g = 0
        for rows in combinations(range(m), k):
            for cols in combinations(range(n), k):
                sub = [[dense[i][j] for j in cols] for i in rows]
                g = gcd(g, abs(determinant(sub)))
        if g == 0:
            break
        diag.append(g // prev)
        prev = g
    while len(diag) < min(m, n):
        diag.append(0)
    return tuple(diag)


def random_matrix(rng, max_side=5, max_entry=5):
    m = rng.randint(1, max_side)
    n = rng.randint(1, max_side)
    return [[rng.randint(-max_entry, max_entry) for _ in range(n)] for _ in range(m)]


# ---------------------------------------------------------------------------
# random presentations

def _path_expr(start, path):
    if not path:
        return Id(Gen(start))
    expr = Gen(path[-1])
    for name in reversed(path[:-1]):
        expr = Comp(0, Gen(name), expr)
    return expr


def random_presentation(seed) -> PolyPresentation:
    """A small presentation (dimensions <= 3, at most 6 generators).

    Boundaries of 2-generators are parallel edge paths; boundaries of
    3-generators are built from whiskered and composed 2-generators whose
    tables agree below the top row.  Loops and endo cells are allowed, so
    the output exercises every classification outcome.
    """
    rng = random.Random(seed)
    n0 = rng.randint(1, 2)
    budget = 6 - n0
    n1 = rng.randint(0, min(3, budget))
    budget -= n1
    n2 = rng.randint(0, min(2, budget)) if n1 else 0
    budget -= n2
    n3 = rng.randint(0, min(1, budget)) if n2 else 0

    objs = ["v%d" % i for i in range(n0)]
    levels = [list(objs)]
    boundary = {}

    ones = []
    ends = {}
    for i in range(n1):
        name = "e%d" % i
        u, v = rng.choice(objs), rng.choice(objs)
        boundary[name] = (Gen(u), Gen(v))
        ends[name] = (u, v)
        ones.append(name)
    if ones:
        levels.append(ones)

    def random_path():
        u = rng.choice(objs)
        path = []
        node = u
        for _ in range(rng.randint(0, 2)):
            options = [e for e in ones if ends[e][0] == node]
            if not options:
                break
            e = rng.choice(options)
            path.append(e)
            node = ends[e][1]
        return u, node, tuple(path)

    twos = []
    if n2:
        groups = {}
        for _ in range(8):
            u, v, path = random_path()
            groups.setdefault((u, v), set()).add((u, path))
        for i in range(n2):
            key = rng.choice(sorted(groups))
            members = sorted(groups[key])
            s_start, s_path = rng.choice(members)
            t_start, t_path = rng.choice(members)
            name = "a%d" % i
            boundary[name] = (_path_expr(s_start, list(s_path)),
                              _path_expr(t_start, list(t_path)))
            twos.append(name)
        levels.append(twos)

    threes = []
    if n3:
        stub = PolyPresentation(levels, boundary)
        lam = lambda_presentation(stub)
        cands = [Gen(name) for name in twos]
        for _ in range(6):
            a, b = rng.choice(cands), rng.choice(cands)
            ta, tb = eval_table(stub, a), eval_table(stub, b)
            if nu.composable(ta, tb, 1):
                cands.append(Comp(1, a, b))
            elif nu.composable(ta, tb, 0):
                cands.append(Comp(0, a, b))
            else:
                u, node, path = random_path()
                wt = nu.identity(eval_table(stub, _path_expr(u, list(path))))
                if nu.composable(wt, ta, 0):
                    cands.append(Comp(0, Id(_path_expr(u, list(path))), a))
                elif nu.composable(ta, wt, 0):
                    cands.append(Comp(0, a, Id(_path_expr(u, list(path)))))
        groups = {}
        for expr in cands:
            table = eval_table(stub, expr)
            if is_valid_table(lam, table)[0]:
                groups.setdefault(table.rows[:-1], []).append(expr)
        if groups:
            members = groups[rng.choice(sorted(groups, key=repr))]
            src = rng.choice(members)
            tgt = rng.choice(members)
            boundary["T0"] = (src, tgt)
            threes.append("T0")
            levels.append(threes)

    return PolyPresentation(levels, boundary)


def catalog_presentations():
    """Every catalog presentation, for sweep tests."""
    entries = []
    for n in range(4):
        entries.append(build("oriental", (n,)))
    for n in range(4):
        entries.append(build("disk", (n,)))
    for n in range(-1, 3):
        entries.append(build("sphere", (n,)))
    for m in range(4):
        entries.append(build("ordinal", (m,)))
    entries.append(build("theta2", (3, 2, 0, 1)))
    entries.append(build("theta2", (1, 2)))
    for name in ("loop", "endo2cell", "square", "forestA"):
        entries.append(build(name))
    return [entry.as_presentation() for entry in entries]


# ---------------------------------------------------------------------------
# the reference linearization

def reference_linearization(pres) -> Adc:
    """The linearization built expression by expression: the differential
    of a generator is its linearized target minus its linearized source,
    and every dimension-0 generator has augmentation 1."""
    diff = {}
    for q in range(1, len(pres.generators)):
        for name in pres.generators[q]:
            src, tgt = pres.boundary_of(name)
            diff[name] = linearize(pres, tgt).vector - linearize(pres, src).vector
    return Adc(pres.generators, diff, {name: 1 for name in pres.dims(0)})


def assert_construction_is_sound(pres):
    """What construction does not check because it cannot fail: every
    boundary expression and every filed generator table is a cell of the
    linearization, the linearization satisfies the chain complex laws, and
    it equals the reference built from the expressions."""
    lam = lambda_presentation(pres)
    assert lam == reference_linearization(pres)
    assert validate_adc(lam).ok
    for name in pres.all_generators():
        exprs = (Gen(name),) + (pres.boundary_of(name) if pres.dim_of(name) else ())
        for expr in exprs:
            assert is_valid_table(lam, eval_table(pres, expr)) == (True, None), \
                (name, expr)


# ---------------------------------------------------------------------------
# the reference condensation

def reference_sccs(graph) -> tuple:
    """Strongly connected components of a RelationGraph (Tarjan, iterative),
    as tuples, all of them, computed eagerly from the sorted edges."""
    succ = graph.successors()
    index = {}
    low = {}
    on_stack = set()
    stack = []
    out = []
    counter = [0]

    for root in graph.nodes:
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


def reference_cycle_in(graph, members, start) -> tuple:
    """Shortest path start -> start through at least one other node,
    inside members."""
    succ = graph.successors()
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


def reference_antisymmetry(graph) -> tuple:
    """(True, None), or (False, a cycle inside the first component of two
    or more nodes, from that component's first member)."""
    for comp in reference_sccs(graph):
        if len(comp) >= 2:
            return False, reference_cycle_in(graph, set(comp), comp[0])
    return True, None


# ---------------------------------------------------------------------------
# the reference closure

def reference_close(rows, seeds, max_dim: int, admit, record: bool = False):
    """The closure loop as it was before unit pairs were skipped: every
    composable pair is composed, the unit pairs along the top face too.
    Monkeypatched over ``nu._close``, it gives the index that the
    skipping one must reproduce: the same codes, positions, provenance,
    interned rows and pair record.  With ``record`` on, the pair record
    is filed as each pair is composed and handed to the index in place of
    the one it reads off its codes."""
    index = nu.CompositionIndex(rows)
    compose_codes, identity_code = rows.compose, rows.identity
    queue = deque()  # (dim, pos) of the cells to compose, in admission order
    codes, located, provenance = index.codes, index.located, index.provenance
    sources = {}  # dim -> {p-source key: positions}
    targets = {}  # dim -> {p-target key: positions}
    # dim -> per position, how many cells of that dim were indexed when the
    # cell was dequeued; those are the partners it has been composed with
    reached = {}
    products, identities = {}, {}
    if record:
        index.products, index.identities = products, identities

    def add(q: int, code: tuple, origin):
        position = located.get(q)
        if position is None:
            position = located[q] = {}
            codes[q], sources[q], targets[q], reached[q] = [], {}, {}, []
        j = position.get(code)
        if j is not None:
            return j
        if not admit(q, code):
            return None
        j = position[code] = len(codes[q])
        codes[q].append(code)
        provenance.setdefault(q, []).append(origin)
        source, target = sources[q], targets[q]
        for k in range(1, 2 * q, 2):
            source.setdefault(code[:k], []).append(j)
            target.setdefault(code[:k - 1] + (code[k],), []).append(j)
        queue.append((q, j))
        return j

    for code in seeds:
        add(len(code) // 2 - 1, code, None)
    while queue:
        q, i = queue.popleft()
        coded = codes[q]
        t = coded[i]
        if q < max_dim:
            j = add(q + 1, identity_code(t), (i,))
            if record and j is not None:
                identities.setdefault(q, {})[i] = j
        seen = reached[q]
        seen.append(len(coded))  # cells of a dim are dequeued in position order
        filed = products.setdefault(q, {}) if record else None
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
            if found is None:
                found = add(q, code, key)
            if record:
                filed[key] = found
    return index
