"""Shared helpers: seeded presentation and complex generators, a
Smith-form oracle, the reference checks of a presentation's
linearization, the reference condensation of a relation graph, the
reference closure loop, and the small readers the tests share."""

from __future__ import annotations

import random
from copy import copy
from itertools import combinations
from math import gcd

from polyadc import (
    Adc,
    Comp,
    EnumerationCapExceeded,
    Gen,
    Id,
    IntVector,
    NuTable,
    PolyPresentation,
    build,
    compose,
    determinant,
    enumerate_nu,
    eval_table,
    identity,
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


def random_presentation(seed, acyclic=False) -> PolyPresentation:
    """A small presentation (dimensions <= 3, at most 6 generators).

    Boundaries of 2-generators are parallel edge paths; boundaries of
    3-generators are built from whiskered and composed 2-generators whose
    tables agree below the top row.  Loops and endo cells are allowed, so
    the output exercises every classification outcome.  With ``acyclic``
    there are two or three vertices and every edge goes from a lower to a
    higher vertex index, as in the benchmark's generator
    (``perfbench/randpres.py``): no edge is a loop, so most
    linearizations are unital and enumerate past dimension 0.
    """
    rng = random.Random(seed)
    n0 = rng.randint(2, 3) if acyclic else rng.randint(1, 2)
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
        if acyclic:
            u, v = sorted(rng.sample(objs, 2))
        else:
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


def attached_complex(seed, top_dim, per_level=4, acyclic=True) -> Adc:
    """A random complex of dimension up to ``top_dim``, built by attaching
    generators along parallel cells.

    It starts from 2-4 vertices and 2-5 edges between distinct vertices,
    each from the lower to the higher vertex with ``acyclic``, else in a
    random direction.  Then, for n from 2 to ``top_dim``, it enumerates the
    cells up to degree n - 1, sorts the nontrivial (n - 1)-cells by
    ``NuTable.key`` (so the output does not depend on the closure's order
    of discovery) and groups them by their rows below the top, so that the
    cells of a group are parallel.
    Up to ``per_level`` times it picks two cells x and y of one group whose
    top rows have disjoint supports and attaches an n-generator with
    boundary top(y) - top(x).  The parallelism gives dd = 0, so every
    output is a chain complex.  Attaching stops at a level whose
    enumeration hits its caps or finds an atom that is not a cell.
    """
    rng = random.Random(seed)
    vertices = ["v%d" % i for i in range(rng.randint(2, 4))]
    levels = [vertices]
    diff = {}
    edges = []
    for i in range(rng.randint(2, 5)):
        u, v = sorted(rng.sample(vertices, 2))
        if not acyclic and rng.random() < 0.5:
            u, v = v, u
        name = "e%d" % i
        diff[name] = IntVector({v: 1, u: -1})
        edges.append(name)
    levels.append(edges)
    for n in range(2, top_dim + 1):
        complex_ = Adc(levels, diff, dict.fromkeys(vertices, 1))
        try:
            cells = sorted(enumerate_nu(complex_, max_dim=n - 1, max_cells=3000)
                           .nontrivial(n - 1), key=NuTable.key)
        except (EnumerationCapExceeded, ValueError):
            break
        groups = {}
        for cell in cells:
            groups.setdefault(cell.rows[:-1], []).append(cell.rows[-1][0])
        pairs = [(x, y) for tops in groups.values()
                 for i, x in enumerate(tops) for j, y in enumerate(tops)
                 if (i < j or not acyclic and i > j)
                 and x.support().isdisjoint(y.support())]
        attached = []
        for i in range(per_level if pairs else 0):
            x, y = rng.choice(pairs)
            name = "g%d_%d" % (n, i)
            diff[name] = y - x
            attached.append(name)
        if not attached:
            break
        levels.append(attached)
    return Adc(levels, diff, dict.fromkeys(vertices, 1))


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


def expr_obj(expr):
    """The object form of an expression, as a document writes it."""
    if isinstance(expr, Gen):
        return {"gen": expr.name}
    if isinstance(expr, Id):
        return {"id": expr_obj(expr.inner)}
    return {"comp": [expr.level, expr_obj(expr.left), expr_obj(expr.right)]}


def largest_coeff(table) -> int:
    """The largest absolute coefficient in any row of a table."""
    return max((abs(c) for row in table.rows for vec in row for _, c in vec.items()),
               default=0)


def truncated(complex_, n) -> Adc:
    """The complex restricted to degrees <= n."""
    basis = complex_.basis[: n + 1]
    diff = {name: complex_.diff(name) for level in basis[1:] for name in level}
    aug = {name: complex_.eps_gen(name) for name in (basis[0] if basis else ())}
    return Adc(basis, diff, aug)


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
            diff[name] = linearize(pres, tgt) - linearize(pres, src)
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

def successors(nodes, edges) -> dict:
    """Each node's successors under an edge set, in name order."""
    succ = {n: [] for n in nodes}
    for u, v in sorted(edges):
        succ[u].append(v)
    return succ


def reachable_pairs(graph) -> frozenset:
    """All pairs (u, v) of a RelationGraph with a directed path of length
    >= 1 from u to v."""
    succ = successors(graph.nodes, graph.edges)
    pairs = set()
    for u in graph.nodes:
        seen = set()
        frontier = list(succ[u])
        while frontier:
            v = frontier.pop()
            if v not in seen:
                seen.add(v)
                frontier.extend(succ[v])
        pairs.update((u, v) for v in seen)
    return frozenset(pairs)


def reference_sccs(graph) -> tuple:
    """Strongly connected components of a RelationGraph (Tarjan, iterative),
    as tuples, all of them, computed eagerly from the sorted edges."""
    succ = successors(graph.nodes, graph.edges)
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
    succ = successors(graph.nodes, graph.edges)
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

def coder_state(rows) -> tuple:
    """A copy of every field of a :class:`polyadc.nu.PackedRows`, to
    compare two coders, or one coder before and after a call."""
    return tuple(copy(getattr(rows, name)) for name in type(rows).__slots__)


def decoded_positions(index) -> dict:
    """dim -> {table: position} of the cells an index filed.  Each index
    packs rows with slots of its own, so two indices that file the same
    tables may give them different codes; they are compared through
    this."""
    decode = index.rows.decode
    return {q: {decode(code): j for j, code in enumerate(codes)}
            for q, codes in index.codes.items() if codes}


def reference_close(rows, seeds, max_dim: int, admit, record: bool = False):
    """The closure loop with every composable pair composed: ``nu._close``'s
    order of work, but each non-unit is also composed with its unit
    partners along their top face, and the units of a degree with each
    other, once its identities are admitted.  Monkeypatched over
    ``nu._close``, it gives the index that the one leaving those pairs out
    must reproduce: the same codes, positions, provenance, coder and pair
    record.  Each pair is composed once, by a set of the pairs done rather
    than ``_close``'s counts.  With ``record`` on, the pair record is filed
    as each pair is composed and handed to the index in place of the one
    it reads off its codes."""
    index = nu.CompositionIndex(rows)
    compose_codes, identity_code, is_unit = rows.compose, rows.identity, rows.is_unit
    codes, located, provenance = index.codes, index.located, index.provenance
    sources, targets = {}, {}  # dim -> {p-source or p-target key: positions}
    products = {}
    if record:
        index.products = products

    for q in range(len(rows.slots)):
        codes[q], located[q], sources[q], targets[q] = [], {}, {}, {}

    def add(q: int, code: tuple, origin):
        position = located[q]
        j = position.get(code)
        if j is not None:
            return j
        if not admit(q, code):
            return None
        j = position[code] = len(codes[q])
        codes[q].append(code)
        provenance.setdefault(q, []).append(origin)
        for k in range(1, 2 * q, 2):
            sources[q].setdefault(code[:k], []).append(j)
            targets[q].setdefault(code[:k - 1] + (code[k],), []).append(j)
        return j

    def partners(q: int, i: int) -> list:
        # (p, left, right) of every pair of cell i with a filed cell
        t = codes[q][i]
        keys = []
        for k in range(1, 2 * q, 2):
            keys += [(k // 2, i, j) for j in sources[q].get(t[:k - 1] + (t[k],), ())]
            keys += [(k // 2, j, i) for j in targets[q].get(t[:k], ())]
        return keys

    for code in seeds:
        add(len(code) // 2 - 1, code, None)
    for q in range(len(rows.slots)):
        if 0 < q <= max_dim:
            for i, t in enumerate(codes[q - 1]):
                add(q, identity_code(t), (i,))
        if not codes[q]:
            continue
        coded, filed, done = codes[q], products.setdefault(q, {}), set()

        def compose_all(i, keys):
            # by the partner's position, then p, then cell i on the left first
            for key in sorted(set(keys) - done, key=lambda key: (
                    key[2] if key[1] == i else key[1], key[0], key[1] != i)):
                done.add(key)
                p, x, y = key
                j = add(q, compose_codes(coded[x], coded[y], p), key)
                if record:
                    filed[key] = j

        units = {i for i, code in enumerate(coded) if q and is_unit(code)}
        for i in sorted(units):
            compose_all(i, [key for key in partners(q, i) if {key[1], key[2]} <= units])
        i = 0
        while i < len(coded):  # grows as composites are admitted
            if q and not is_unit(coded[i]):
                compose_all(i, partners(q, i))
            i += 1
    return index


def table_close(seeds, max_dim: int, admit) -> tuple:
    """The closure loop of ``nu._close`` run on tables, the oracle for its
    packed rows: (cells, provenance), each dim -> a list by position.

    It keeps ``_close``'s order of work (the seeds first; then, degree by
    degree, the identities of the cells one degree down in position
    order, and the composites of each non-unit t, scanned in position
    order, by the partner's position, then p, then t on the left first,
    each pair once, unit pairs along their top face skipped and units
    never composed with each other) but files each table under its
    p-source ``(rows[:p], rows[p][0])`` and p-target ``(rows[:p],
    rows[p][1])`` and composes with ``table.compose``; ``admit(table)`` is
    asked about each new table.  So decoding what the packed closure filed
    must give the same cells, positions and provenance.
    """
    cells, located, provenance = {}, {}, {}
    sources, targets = {}, {}

    def is_unit(t):
        return t.is_trivial() and t.rows[-2][0] == t.rows[-2][1]

    def add(table, origin):
        q = table.dim
        if q not in located:
            located[q], cells[q], sources[q], targets[q] = {}, [], {}, {}
        if table in located[q] or not admit(table):
            return
        j = located[q][table] = len(cells[q])
        cells[q].append(table)
        provenance.setdefault(q, []).append(origin)
        for p in range(q - 1 if is_unit(table) else q):
            sources[q].setdefault((table.rows[:p], table.rows[p][0]), []).append(j)
            targets[q].setdefault((table.rows[:p], table.rows[p][1]), []).append(j)

    for table in seeds:
        add(table, None)
    for q in range(max([max_dim, *located]) + 1):
        if 0 < q <= max_dim:
            for t in list(cells.get(q - 1, ())):
                add(identity(t), (located[q - 1][t],))
        reached = {}  # position of a scanned non-unit -> cells of dim q then
        i = 0
        while i < len(cells.get(q, ())):
            t = cells[q][i]
            i += 1
            if is_unit(t):
                continue
            k = i - 1
            reached[k] = len(cells[q])
            pairs = []
            for p in range(q):
                pairs += [(j, p, 0) for j in sources[q].get((t.rows[:p], t.rows[p][1]), ())
                          if not j < k < reached.get(j, 0)]
                pairs += [(j, p, 1) for j in targets[q].get((t.rows[:p], t.rows[p][0]), ())
                          if j != k and not j < k < reached.get(j, 0)]
            for j, p, t_is_right in sorted(pairs):
                key = (p, j, k) if t_is_right else (p, k, j)
                made = compose(cells[q][key[1]], cells[q][key[2]], p)
                if made not in located[q]:
                    add(made, key)
    return ({q: tables for q, tables in cells.items() if tables},
            {q: origins for q, origins in provenance.items() if origins})
