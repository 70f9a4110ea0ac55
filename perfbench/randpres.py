"""Seeded random small presentations for the benchmark's input sets.

Shapes follow the randomized presentations of the test-suite: at most six
generators in dimensions up to 3; 2-generators between parallel edge paths;
a 3-generator between two 2-dimensional composites whose tables agree below
the top row.  Loops and endo cells are allowed, so every classification
outcome appears.  The generator is the benchmark's own so that the inputs
do not depend on the test files.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import factorial


def _path(lib, start, edges):
    """The composite of an edge path, or the identity on its start."""
    pg = lib.polygraph
    if not edges:
        return pg.Id(pg.Gen(start))
    expr = pg.Gen(edges[-1])
    for name in reversed(edges[:-1]):
        expr = pg.Comp(0, pg.Gen(name), expr)
    return expr


def _edge_odds(n0, n1, acyclic):
    """Each multiset of ``n1`` edges, as (source, target) vertex indices,
    with the chance that free draws give it."""
    if acyclic:
        pairs = list(combinations(range(n0), 2))
    else:
        pairs = [(u, v) for u in range(n0) for v in range(n0)]
    odds = {}
    for edges in combinations_with_replacement(pairs, n1):
        orders = factorial(n1)
        for k in Counter(edges).values():
            orders //= factorial(k)
        odds[edges] = Fraction(orders, len(pairs) ** n1)
    return odds


def _shape_odds(acyclic):
    """Each (vertices, edges, 2-generators, wants a 3-generator) with the
    chance that a free draw gives it."""
    odds = {}
    for n0 in ((2, 3) if acyclic else (1, 2)):
        for n1 in range(min(3, 6 - n0) + 1):
            p1 = Fraction(1, 2) / (min(3, 6 - n0) + 1)
            for edges, pe in _edge_odds(n0, n1, acyclic).items():
                for n2 in range(min(2, 6 - n0 - n1) + 1 if n1 else 1):
                    p2 = p1 * pe / (min(2, 6 - n0 - n1) + 1) if n1 else p1
                    top = min(1, 6 - n0 - n1 - n2) + 1 if n2 else 1
                    for want3 in range(top):
                        shape = (n0, edges, n2, bool(want3))
                        odds[shape] = odds.get(shape, 0) + p2 / top
    return odds


def shapes(count, acyclic=False):
    """``count`` shapes in the proportions of free draws, rounded the same
    way every time, so that input sets drawn from different seeds hold the
    same mix of sizes and edge patterns."""
    odds = sorted(_shape_odds(acyclic).items())
    counts = [int(p * count) for _, p in odds]
    by_rest = sorted(range(len(odds)), key=lambda i: -(odds[i][1] * count - counts[i]))
    for i in by_rest[:count - sum(counts)]:
        counts[i] += 1
    return [shape for (shape, _), k in zip(odds, counts) for _ in range(k)]


def random_presentation(lib, seed, acyclic=False, shape=None):
    """A random presentation; with ``acyclic`` every edge goes from a lower
    to a higher vertex, which makes strong Steiner outcomes far likelier.
    ``shape`` fixes the generator counts and the edges, which are otherwise
    drawn first (see :func:`shapes`)."""
    pg = lib.polygraph
    nu = lib.nu
    rng = random.Random(seed)
    if shape is None:
        n0 = rng.randint(2, 3) if acyclic else rng.randint(1, 2)
        n1 = rng.randint(0, min(3, 6 - n0))
        n2 = rng.randint(0, min(2, 6 - n0 - n1)) if n1 else 0
        want3 = bool(n2) and rng.randint(0, min(1, 6 - n0 - n1 - n2)) == 1
        edges = None
    else:
        n0, edges, n2, want3 = shape
        n1 = len(edges)

    vertices = ["v%d" % i for i in range(n0)]
    levels = [vertices]
    boundary = {}
    ends = {}
    for i in range(n1):
        if edges is not None:
            u, v = (vertices[k] for k in edges[i])
        elif acyclic:
            u, v = sorted(rng.sample(vertices, 2))
        else:
            u, v = rng.choice(vertices), rng.choice(vertices)
        ends["e%d" % i] = (u, v)
        boundary["e%d" % i] = (pg.Gen(u), pg.Gen(v))
    if n1:
        levels.append(sorted(ends))

    def walk():
        start = node = rng.choice(vertices)
        edges = []
        for _ in range(rng.randint(0, 2)):
            out = [e for e in sorted(ends) if ends[e][0] == node]
            if not out:
                break
            edges.append(rng.choice(out))
            node = ends[edges[-1]][1]
        return start, node, tuple(edges)

    twos = []
    if n2:
        parallel = {}
        for _ in range(8):
            start, stop, edges = walk()
            parallel.setdefault((start, stop), set()).add(edges)
        for i in range(n2):
            start, stop = rng.choice(sorted(parallel))
            paths = sorted(parallel[(start, stop)])
            src, tgt = rng.choice(paths), rng.choice(paths)
            twos.append("a%d" % i)
            boundary["a%d" % i] = (_path(lib, start, list(src)),
                                   _path(lib, start, list(tgt)))
        levels.append(twos)

    if want3:
        stub = pg.PolyPresentation(levels, boundary)
        lam = pg.lambda_presentation(stub)
        exprs = [pg.Gen(name) for name in twos]
        for _ in range(6):
            a, b = rng.choice(exprs), rng.choice(exprs)
            ta, tb = pg.eval_table(stub, a), pg.eval_table(stub, b)
            if nu.composable(ta, tb, 1):
                exprs.append(pg.Comp(1, a, b))
            elif nu.composable(ta, tb, 0):
                exprs.append(pg.Comp(0, a, b))
            else:
                start, _, edges = walk()
                whisker = pg.Id(_path(lib, start, list(edges)))
                tw = pg.eval_table(stub, whisker)
                if nu.composable(tw, ta, 0):
                    exprs.append(pg.Comp(0, whisker, a))
                elif nu.composable(ta, tw, 0):
                    exprs.append(pg.Comp(0, a, whisker))
        by_shape = {}
        for expr in exprs:
            table = pg.eval_table(stub, expr)
            if nu.is_valid_table(lam, table)[0]:
                by_shape.setdefault(table.rows[:-1], []).append(expr)
        if by_shape:
            group = by_shape[rng.choice(sorted(by_shape, key=repr))]
            boundary["T0"] = (rng.choice(group), rng.choice(group))
            levels.append(["T0"])

    return pg.PolyPresentation(levels, boundary)
