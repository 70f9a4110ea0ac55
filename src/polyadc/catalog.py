"""Built-in example complexes and presentations.

Each entry carries whichever of the two forms (polygraph presentation,
augmented directed complex) is primary for it, plus hand-checked
classification facts in ``expected`` that the test-suite pins against the
classifiers.  Simplex-shaped entries use vertex-string names ("01", "012";
"0-1-12" once a vertex number has two digits) in both forms, so the
linearization of the presentation and the directly built complex agree on
the nose.
"""

from __future__ import annotations

from itertools import combinations

from .adc import Adc
from .polygraph import Comp, Gen, Id, PolyPresentation, lambda_presentation
from .zlin import IntVector, Record

# The most generators a family entry may have.  Each family's count is
# worked out in closed form before anything is built; at this many, the
# largest disk, sphere, ordinal, theta2 and oriental entries each build and
# serialize in a few seconds and under 1 GB (the disk and sphere tables hold
# a row per degree below each generator, so they grow with its square).
MAX_GENERATORS = 2**14


class CatalogCapExceeded(Exception):
    """A catalog entry would have more than ``MAX_GENERATORS`` generators."""

    code = "CATALOG_CAP"


def _refuse_above_cap(name: str, params: tuple, count: int):
    if count > MAX_GENERATORS:
        shown = "%d" % count if count <= 10**18 else "more than 10**18"
        raise CatalogCapExceeded(
            "catalog entry %s %s has %s generators; the limit is %d"
            % (name, " ".join(str(p) for p in params), shown, MAX_GENERATORS))


class CatalogEntry(Record):
    """One built example; ``expressions`` and ``expected`` are empty dicts
    when not given."""

    __slots__ = _fields = ("name", "params", "presentation", "complex", "native",
                           "expressions", "expected")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, name: str, params: tuple,
                 presentation: PolyPresentation | None, complex: Adc | None,
                 native: str,  # "polygraph" or "adc"
                 expressions: dict | None = None, expected: dict | None = None):
        self.name = name
        self.params = params
        self.presentation = presentation
        self.complex = complex
        self.native = native
        self.expressions = {} if expressions is None else expressions
        self.expected = {} if expected is None else expected

    def as_adc(self) -> Adc:
        if self.complex is not None:
            return self.complex
        return lambda_presentation(self.presentation)

    def as_presentation(self) -> PolyPresentation:
        if self.presentation is None:
            raise ValueError(
                "catalog entry %r has no polygraph form" % self.name
            )
        return self.presentation


# The verdicts every Steiner family entry pins; each entry gets its own copy.
_STEINER = {"atomic": True, "strong_steiner": True}


def _presented(name: str, params: tuple, levels: list, boundary: dict,
               expected: dict = _STEINER,
               expressions: dict | None = None) -> CatalogEntry:
    """A presentation-native entry, with a copy of ``expected``; trailing
    empty levels are dropped by the presentation."""
    return CatalogEntry(name, params, PolyPresentation(levels, boundary), None,
                        "polygraph", expressions, dict(expected))


def _edge(source: str, target: str) -> tuple:
    """The boundary of a cell from one generator to another."""
    return Gen(source), Gen(target)


def _globe(n: int) -> tuple:
    """The levels and boundaries of the n-sphere: s_q and t_q in each
    dimension q <= n, both from s_(q-1) to t_(q-1)."""
    levels = [["s%d" % q, "t%d" % q] for q in range(n + 1)]
    boundary = {}
    for q in range(1, n + 1):
        boundary["s%d" % q] = boundary["t%d" % q] = _edge("s%d" % (q - 1), "t%d" % (q - 1))
    return levels, boundary


def _disk(n: int) -> CatalogEntry:
    if n < 0:
        raise ValueError("disk needs a dimension >= 0")
    _refuse_above_cap("disk", (n,), 2 * n + 1)
    levels, boundary = _globe(n - 1)
    levels.append(["c%d" % n])
    if n:
        boundary["c%d" % n] = _edge("s%d" % (n - 1), "t%d" % (n - 1))
    return _presented("disk", (n,), levels, boundary)


def _sphere(n: int) -> CatalogEntry:
    if n < -1:
        raise ValueError("sphere needs a dimension >= -1")
    _refuse_above_cap("sphere", (n,), 2 * n + 2)
    return _presented("sphere", (n,), *_globe(n))


def _ordinal(m: int) -> CatalogEntry:
    if m < 0:
        raise ValueError("ordinal needs m >= 0")
    _refuse_above_cap("ordinal", (m,), 2 * m + 1)
    levels = [["v%d" % i for i in range(m + 1)], ["e%d" % i for i in range(1, m + 1)]]
    boundary = {"e%d" % i: _edge("v%d" % (i - 1), "v%d" % i) for i in range(1, m + 1)}
    return _presented("ordinal", (m,), levels, boundary)


def _theta2(params) -> CatalogEntry:
    if not params:
        raise ValueError("theta2 needs at least the number of columns")
    m, ks = params[0], params[1:]
    if m < 0 or len(ks) != m or any(k < 0 for k in ks):
        raise ValueError("theta2 parameters must be m followed by m widths")
    _refuse_above_cap("theta2", params, 2 * m + 1 + 2 * sum(ks))
    levels = [["v%d" % i for i in range(m + 1)], [], []]
    boundary = {}
    for i, k in enumerate(ks, 1):
        for j in range(k + 1):
            name = "f%d_%d" % (i, j)
            levels[1].append(name)
            boundary[name] = _edge("v%d" % (i - 1), "v%d" % i)
        for j in range(1, k + 1):
            name = "a%d_%d" % (i, j)
            levels[2].append(name)
            boundary[name] = _edge("f%d_%d" % (i, j - 1), "f%d_%d" % (i, j))
    return _presented("theta2", tuple(params), levels, boundary)


def _simplex_name(vertices, sep) -> str:
    return sep.join(str(v) for v in vertices)


def _oriental_complex(n: int) -> Adc:
    # from vertex 10 on, run-together digits would give vertex 12 and edge
    # 1-2 the same name
    sep = "-" if n >= 10 else ""
    simplices = [list(combinations(range(n + 1), q + 1)) for q in range(n + 1)]
    basis = [[_simplex_name(c, sep) for c in level] for level in simplices]
    diff = {}
    for q in range(1, n + 1):
        for combo, name in zip(simplices[q], basis[q]):
            # the faces are distinct, so each gets its sign as it stands
            diff[name] = IntVector._of({
                _simplex_name(combo[:i] + combo[i + 1:], sep): (-1) ** i
                for i in range(q + 1)})
    return Adc(basis, diff, {str(v): 1 for v in range(n + 1)})


def _oriental_presentation(n: int):
    """The oriental as a presentation, for n <= 3, on the names of
    :func:`_oriental_complex`: each edge ij goes from i to j and each
    triangle ijk from ik to ij composed with jk.  The 3-simplex's boundary
    is the paper's worked example and is written out."""
    if n > 3:
        return None
    vertices = "0123"[:n + 1]
    levels = [["".join(c) for c in combinations(vertices, q + 1)] for q in range(n + 1)]
    boundary = {i + j: _edge(i, j) for i, j in combinations(vertices, 2)}
    for i, j, k in combinations(vertices, 3):
        boundary[i + j + k] = (Gen(i + k), Comp(0, Gen(i + j), Gen(j + k)))
    if n == 3:
        boundary["0123"] = (
            Comp(1, Gen("023"), Comp(0, Gen("012"), Id(Gen("23")))),
            Comp(1, Gen("013"), Comp(0, Id(Gen("01")), Gen("123"))),
        )
    return PolyPresentation(levels, boundary)


def _oriental(n: int) -> CatalogEntry:
    if n < 0:
        raise ValueError("oriental needs a dimension >= 0")
    # 2**(n + 1) - 1 nonempty vertex sets, not computed past 64 bits
    _refuse_above_cap("oriental", (n,), 2 ** min(n + 1, 64) - 1)
    return CatalogEntry("oriental", (n,), _oriental_presentation(n),
                        _oriental_complex(n), "adc", expected=dict(_STEINER))


def _loop() -> CatalogEntry:
    return _presented(
        "loop", (), [["a", "b"], ["f", "g"]],
        {"f": _edge("a", "b"), "g": _edge("b", "a")},
        {
            "atomic": True,
            "codim1_antisymmetric": False,
            "strongly_loop_free_categorical": False,
            "strongly_loop_free_algebraic": False,
            "steiner_orderable": False,
            "strong_steiner": False,
        },
    )


def _endo2cell() -> CatalogEntry:
    return _presented(
        "endo2cell", (), [["x"], [], ["alpha"]],
        {"alpha": (Id(Gen("x")), Id(Gen("x")))},
        {
            "atomic": False,
            "codim1_antisymmetric": True,
            "strongly_loop_free_categorical": False,
            "strongly_loop_free_algebraic": True,
            "steiner_orderable": False,
            "strong_steiner": False,
        },
    )


def _square() -> CatalogEntry:
    return _presented(
        "square", (), [["x", "y", "z"], ["f", "g", "h"], ["alpha"]],
        {
            "f": _edge("x", "y"),
            "g": _edge("y", "z"),
            "h": _edge("y", "z"),
            "alpha": (Comp(0, Gen("f"), Gen("g")), Comp(0, Gen("f"), Gen("h"))),
        },
        {
            "atomic": False,
            "codim1_antisymmetric": False,
            "strongly_loop_free_categorical": False,
            "strongly_loop_free_algebraic": True,
            "steiner_orderable": False,
            "strong_steiner": False,
        },
    )


def _forest_a() -> CatalogEntry:
    boundary = {name: _edge(u, v) for name, (u, v) in {
        "a": ("x", "y"), "b": ("x", "y"), "c": ("x", "y"),
        "d": ("y", "z"), "e": ("y", "z"), "f": ("y", "z"),
        "alpha": ("a", "b"), "alpha'": ("a", "b"),
        "beta": ("b", "c"), "beta'": ("b", "c"),
        "gamma": ("d", "e"), "gamma'": ("d", "e"),
        "delta": ("e", "f"), "delta'": ("e", "f"),
    }.items()}
    boundary["A"] = (
        Comp(0, Gen("alpha"), Gen("delta")),
        Comp(0, Gen("alpha'"), Gen("delta'")),
    )
    boundary["B"] = (
        Comp(0, Gen("beta"), Gen("gamma")),
        Comp(0, Gen("beta'"), Gen("gamma'")),
    )
    levels = [
        ["x", "y", "z"],
        ["a", "b", "c", "d", "e", "f"],
        ["alpha", "alpha'", "beta", "beta'", "gamma", "gamma'", "delta", "delta'"],
        ["A", "B"],
    ]

    # two routes through A and B with the same linearization
    w1 = Comp(0, Id(Gen("a")), Gen("gamma"))
    w2 = Comp(0, Gen("beta"), Id(Gen("f")))
    w3 = Comp(0, Gen("alpha'"), Id(Gen("d")))
    w4 = Comp(0, Id(Gen("c")), Gen("delta'"))
    h1 = Comp(
        2,
        Comp(1, Id(w1), Comp(1, Gen("A"), Id(w2))),
        Comp(1, Id(w3), Comp(1, Gen("B"), Id(w4))),
    )
    u1 = Comp(0, Gen("alpha"), Id(Gen("d")))
    u2 = Comp(0, Id(Gen("c")), Gen("delta"))
    u3 = Comp(0, Id(Gen("a")), Gen("gamma'"))
    u4 = Comp(0, Gen("beta'"), Id(Gen("f")))
    h2 = Comp(
        2,
        Comp(1, Id(u1), Comp(1, Gen("B"), Id(u2))),
        Comp(1, Id(u3), Comp(1, Gen("A"), Id(u4))),
    )
    return _presented(
        "forestA", (), levels, boundary,
        {
            "atomic": True,
            "strongly_loop_free_categorical": False,
            "strongly_loop_free_algebraic": False,
            "steiner_orderable": False,
            "strong_steiner": False,
        },
        {"H1": h1, "H2": h2},
    )


_BUILDERS = {
    "disk": (_disk, 1),
    "sphere": (_sphere, 1),
    "ordinal": (_ordinal, 1),
    "theta2": (_theta2, None),  # variadic
    "oriental": (_oriental, 1),
    "loop": (_loop, 0),
    "endo2cell": (_endo2cell, 0),
    "square": (_square, 0),
    "forestA": (_forest_a, 0),
}


def names() -> tuple:
    return tuple(sorted(_BUILDERS))


def build(name: str, params=()) -> CatalogEntry:
    """Build a catalog entry by name; integer parameters as documented."""
    try:
        builder, arity = _BUILDERS[name]
    except KeyError:
        raise ValueError(
            "unknown catalog entry %r (known: %s)" % (name, ", ".join(names()))
        ) from None
    params = tuple(params)
    if arity is None:
        return builder(params)
    if len(params) != arity:
        raise ValueError(
            "catalog entry %r takes %d parameter(s), got %d"
            % (name, arity, len(params))
        )
    return builder(*params)
