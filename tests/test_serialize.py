"""JSON document round-trips, schema errors, and DOT export."""

import json

import pytest

from conftest import expr_obj, random_presentation
from polyadc import (
    Adc,
    CoefficientOverflow,
    Comp,
    DocumentError,
    Gen,
    Id,
    IntVector,
    PolyPresentation,
    RelationGraph,
    build,
    lambda_presentation,
    loop_free_report,
    parse_document,
    serialize_document,
    to_dot,
    validate_adc,
)
from polyadc.serialize import MAX_DEGREE, DegreeCapExceeded


def test_expression_round_trip():
    expr = Comp(1, Gen("023"), Comp(0, Gen("012"), Id(Gen("23"))))
    pres = build("oriental", (3,)).as_presentation()
    assert pres.boundary_of("0123")[0] == expr
    doc = json.loads(serialize_document(pres))
    record = next(r for r in doc["generators"] if r["name"] == "0123")
    assert record["src"] == expr_obj(expr)
    assert parse_document(json.dumps(doc)).boundary_of("0123")[0] == expr


def test_expression_schema_errors():
    for bad in (
        [],
        {"gen": "a", "id": {"gen": "a"}},
        {"gen": 3},
        {"comp": [0, {"gen": "a"}]},
        {"comp": ["0", {"gen": "a"}, {"gen": "b"}]},
        {"what": 1},
    ):
        doc = {"kind": "polygraph", "generators": [
            {"name": "a", "dim": 0},
            {"name": "f", "dim": 1, "src": bad, "tgt": {"gen": "a"}}]}
        with pytest.raises(DocumentError):
            parse_document(json.dumps(doc))


def test_documents_round_trip_both_kinds():
    for name, params in [("oriental", (2,)), ("oriental", (3,)),
                         ("forestA", ()), ("theta2", (3, 2, 0, 1))]:
        entry = build(name, params)
        k = entry.as_adc()
        assert parse_document(serialize_document(k)) == k
        pres = entry.as_presentation()
        back = parse_document(serialize_document(pres))
        assert isinstance(back, PolyPresentation)
        assert back.generators == pres.generators
        assert lambda_presentation(back) == lambda_presentation(pres)


def test_serialization_is_canonical():
    k = build("oriental", (2,)).as_adc()
    text = serialize_document(k)
    assert text.endswith("\n")
    assert serialize_document(parse_document(text)) == text
    # declaration order inside a dimension is preserved
    names = [g["name"] for g in json.loads(text)["generators"]]
    assert names == ["0", "1", "2", "01", "02", "12", "012"]


def test_document_schema_errors():
    with pytest.raises(DocumentError):
        parse_document("{not json")
    with pytest.raises(DocumentError):
        parse_document('["kind"]')
    with pytest.raises(DocumentError):
        parse_document('{"kind": "simplicial", "generators": []}')
    with pytest.raises(DocumentError):
        parse_document('{"kind": "adc"}')
    with pytest.raises(DocumentError):
        parse_document('{"kind": "adc", "generators": [], "extra": 1}')
    with pytest.raises(DocumentError):
        parse_document('{"kind": "adc", "generators": [{"name": "a", "dim": 0}]}')
    with pytest.raises(DocumentError):
        parse_document(
            '{"kind": "adc", "generators": '
            '[{"name": "a", "dim": 0, "augmentation": true}]}'
        )
    with pytest.raises(DocumentError):
        parse_document(
            '{"kind": "polygraph", "generators": '
            '[{"name": "a", "dim": 0, "src": {"gen": "a"}}]}'
        )


@pytest.mark.parametrize("entry", ["1", "null", "[]", '"x"'])
@pytest.mark.parametrize("kind", ["adc", "polygraph"])
def test_generator_entries_must_be_objects(kind, entry):
    with pytest.raises(DocumentError, match="generator record 0 must be an object"):
        parse_document('{"kind": "%s", "generators": [%s]}' % (kind, entry))


def with_dim(name, dim):
    """The presentation document of oriental 2 with one generator's dim set."""
    doc = json.loads(serialize_document(build("oriental", (2,)).as_presentation()))
    for record in doc["generators"]:
        if record["name"] == name:
            record["dim"] = dim
    return json.dumps(doc)


@pytest.mark.parametrize("dim", [7, 10**6, 2**70])
def test_a_presentation_dimension_out_of_reach_is_refused_before_layout(dim):
    # seven generators and no identity expressions reach dimension 6 at most;
    # at 2**70 laying out the levels first would exhaust memory
    with pytest.raises(ValueError, match="dimension %d of '02' is out of reach: "
                                         "7 generators and their identity "
                                         "expressions reach dimension 6 at most" % dim):
        parse_document(with_dim("02", dim))


def test_adc_degrees_are_capped_before_layout():
    def lone(dim):
        return ('{"kind": "adc", "generators": '
                '[{"name": "a", "dim": %d, "boundary": {}}]}' % dim)

    assert parse_document(lone(MAX_DEGREE)).max_degree == MAX_DEGREE
    with pytest.raises(DegreeCapExceeded, match="generator 'a' has degree 16385; "
                                                "the limit is 16384"):
        parse_document(lone(MAX_DEGREE + 1))


def test_identity_expressions_extend_the_reach():
    # endo2cell's 2-generator sits above its two generators on identities
    text = serialize_document(build("endo2cell").as_presentation())
    assert serialize_document(parse_document(text)) == text
    up = {"kind": "polygraph", "generators": [
        {"name": "x", "dim": 0},
        {"name": "a", "dim": 4, "src": {"id": {"id": {"id": {"gen": "x"}}}},
         "tgt": {"id": {"id": {"id": {"gen": "x"}}}}}]}
    assert parse_document(json.dumps(up)).max_dim == 4
    up["generators"][1]["dim"] = 8
    with pytest.raises(ValueError, match="reach dimension 7 at most"):
        parse_document(json.dumps(up))


def test_nested_identities_on_both_sides_count_toward_the_reach():
    # two generators and 2 + 3 identity nodes reach dimension 1 + 5 at most
    doc = {"kind": "polygraph", "generators": [
        {"name": "x", "dim": 0},
        {"name": "a", "dim": 7, "src": {"id": {"id": {"gen": "x"}}},
         "tgt": {"comp": [0, {"id": {"gen": "x"}},
                          {"id": {"id": {"gen": "x"}}}]}}]}
    with pytest.raises(ValueError, match="dimension 7 of 'a' is out of reach: "
                                         "2 generators and their identity "
                                         "expressions reach dimension 6 at most"):
        parse_document(json.dumps(doc))


def test_semantic_errors_are_value_errors():
    dup = {
        "kind": "adc",
        "generators": [
            {"name": "a", "dim": 0, "augmentation": 1},
            {"name": "a", "dim": 0, "augmentation": 1},
        ],
    }
    with pytest.raises(ValueError):
        parse_document(json.dumps(dup))
    dangling = {
        "kind": "adc",
        "generators": [{"name": "f", "dim": 1, "boundary": {"zz": 1}}],
    }
    with pytest.raises(ValueError):
        parse_document(json.dumps(dangling))


def test_empty_document_round_trips():
    empty = Adc([], {}, {})
    assert parse_document(serialize_document(empty)) == empty


def test_dot_export():
    k = build("oriental", (1,)).as_adc()
    g = loop_free_report(k).graph
    dot = to_dot(g, {n: k.degree_of(n) for n in g.nodes})
    assert dot.startswith("digraph relation {")
    assert '"0" [label="0:0"];' in dot
    assert '"0" -> "01";' in dot
    assert dot.rstrip().endswith("}")
    forest = lambda_presentation(build("forestA").as_presentation())
    fg = loop_free_report(forest).graph
    quoted = to_dot(fg, {n: forest.degree_of(n) for n in fg.nodes})
    assert '"alpha\'" [label="alpha\':2"];' in quoted


def test_dot_escapes_quotes_and_backslashes_in_node_and_edge_lines():
    graph = RelationGraph(nodes=('a"b', "c\\d", "e"),
                          edges=frozenset({('a"b', "c\\d"), ("c\\d", "e")}))
    assert to_dot(graph, {'a"b': 0, "c\\d": 1, "e": 0}) == (
        'digraph relation {\n'
        '  "a\\"b" [label="a\\"b:0"];\n'
        '  "c\\\\d" [label="c\\\\d:1"];\n'
        '  "e" [label="e:0"];\n'
        '  "a\\"b" -> "c\\\\d";\n'
        '  "c\\\\d" -> "e";\n'
        '}\n')


def test_random_documents_round_trip_to_equal_objects_and_stable_bytes():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(st.integers(min_value=0, max_value=2**32 - 1))
    def prop(seed):
        pres = random_presentation(seed)
        text = serialize_document(pres)
        back = parse_document(text)
        assert isinstance(back, PolyPresentation)
        assert back.generators == pres.generators
        assert all(back.boundary_of(n) == pres.boundary_of(n)
                   for level in pres.generators[1:] for n in level)
        assert serialize_document(back) == text
        k = lambda_presentation(pres)
        text = serialize_document(k)
        assert parse_document(text) == k
        assert serialize_document(parse_document(text)) == text

    prop()


# ---------------------------------------------------------------------------
# the hand-written layout against the JSON encoder

def reference_doc(obj):
    """The object form of a document, as the encoder would be handed it."""
    gens = []
    if isinstance(obj, Adc):
        for q, level in enumerate(obj.basis):
            for name in level:
                if q == 0:
                    gens.append({"name": name, "dim": 0,
                                 "augmentation": obj.eps_gen(name)})
                else:
                    gens.append({"name": name, "dim": q,
                                 "boundary": dict(obj.diff(name).items())})
        return {"kind": "adc", "generators": gens}
    for q, level in enumerate(obj.generators):
        for name in level:
            if q == 0:
                gens.append({"name": name, "dim": 0})
            else:
                src, tgt = obj.boundary_of(name)
                gens.append({"name": name, "dim": q,
                             "src": expr_obj(src), "tgt": expr_obj(tgt)})
    return {"kind": "polygraph", "generators": gens}


def assert_encoder_bytes(obj):
    text = serialize_document(obj)
    assert text == json.dumps(reference_doc(obj), indent=2, sort_keys=True) + "\n"
    return text


CATALOG = [("oriental", (n,)) for n in range(5)] + \
    [("disk", (n,)) for n in range(5)] + \
    [("sphere", (n,)) for n in range(-1, 4)] + \
    [("ordinal", (n,)) for n in range(5)] + \
    [("theta2", p) for p in ((3, 2, 0, 1), (1, 2), (2, 1, 1), (2, 2, 3))] + \
    [(name, ()) for name in ("loop", "endo2cell", "square", "forestA")]


@pytest.mark.parametrize("name, params", CATALOG,
                         ids=["%s%s" % (n, list(p)) for n, p in CATALOG])
def test_catalog_documents_have_the_encoder_bytes_in_both_forms(name, params):
    entry = build(name, params)
    assert_encoder_bytes(entry.as_adc())
    if entry.presentation is not None:  # oriental 4 has no polygraph form
        assert_encoder_bytes(entry.as_presentation())


def test_random_presentations_and_linearizations_have_the_encoder_bytes():
    for seed in range(120):
        pres = random_presentation(seed)
        assert_encoder_bytes(pres)
        assert_encoder_bytes(lambda_presentation(pres))


ODD_NAMES = ('q"uote', "back\\slash", "ctl\x00\x01\x1f\x7f\n\t", "café",
             " sep", "astral\U0001F600\U00010000", "/", "\ud800")


def test_empty_documents_have_the_encoder_bytes():
    assert assert_encoder_bytes(Adc([], {}, {})) == \
        '{\n  "generators": [],\n  "kind": "adc"\n}\n'
    assert assert_encoder_bytes(PolyPresentation([], {})) == \
        '{\n  "generators": [],\n  "kind": "polygraph"\n}\n'


def test_edge_values_have_the_encoder_bytes():
    big = 2**63 - 1
    names = ODD_NAMES
    complex_ = Adc([names[:4], names[4:6], names[6:]],
                   {names[4]: IntVector({names[0]: -3, names[1]: big, names[3]: -big}),
                    names[5]: IntVector(),
                    names[6]: IntVector({names[5]: 1, names[4]: -1}),
                    names[7]: IntVector({names[4]: -big})},
                   {names[0]: -1, names[1]: big, names[2]: 0, names[3]: -big})
    text = assert_encoder_bytes(complex_)
    assert '"boundary": {}' in text
    assert text.isascii()
    # not a chain complex, so the parser refuses it at the first law that
    # fails, before the overflow that checking the last 2-cell would meet
    with pytest.raises(ValueError, match="not a chain complex: dd = 0 fails at '/'"):
        parse_document(text)


def test_documents_that_are_not_chain_complexes_are_refused():
    # dd t = b - c, though every atom is unital and the relation acyclic
    k = Adc([["a", "b", "c"], ["e", "f"], ["t"]],
            {"e": IntVector({"a": -1, "b": 1}), "f": IntVector({"a": -1, "c": 1}),
             "t": IntVector({"e": 1, "f": -1})},
            {"a": 1, "b": 1, "c": 1})
    with pytest.raises(ValueError, match=r"^not a chain complex: dd = 0 fails at "
                                         r"'t' \(IntVector\(\+1\*b -1\*c\)\)$"):
        parse_document(serialize_document(k))
    # eps d e = 2 fails only once every dd is 0
    k = Adc([["a", "b"], ["e"]], {"e": IntVector({"a": 1, "b": 1})}, {"a": 1, "b": 1})
    with pytest.raises(ValueError, match=r"^not a chain complex: eps-d = 0 fails "
                                         r"at 'e' \(2\)$"):
        parse_document(serialize_document(k))
    # the sum 4 * 2**62 overflows before any law can be read off it
    k = Adc([["a", "b"], ["e"]], {"e": IntVector({"a": 4, "b": -3})},
            {"a": 2**62, "b": 1})
    with pytest.raises(CoefficientOverflow):
        parse_document(serialize_document(k))


def test_edge_values_of_a_chain_complex_round_trip_through_the_parser():
    big = 2**63 - 1
    names = ODD_NAMES
    # eps d of the first edge sums big, then -big, then 0 * -big, in name order
    complex_ = Adc([names[:4], names[4:6], names[6:]],
                   {names[4]: IntVector({names[1]: 1, names[2]: -big, names[3]: 1}),
                    names[5]: IntVector(),
                    names[6]: IntVector({names[5]: big}),
                    names[7]: IntVector({names[5]: -big})},
                   {names[0]: -1, names[1]: big, names[2]: 0, names[3]: -big})
    assert validate_adc(complex_).ok
    text = assert_encoder_bytes(complex_)
    assert parse_document(text) == complex_


def test_odd_names_in_expressions_have_the_encoder_bytes():
    a, b, f, g, h, x = ODD_NAMES[:6]
    pres = PolyPresentation(
        [[a, b], [f, g, h], [x]],
        {f: (Gen(a), Gen(b)), g: (Gen(b), Gen(b)), h: (Gen(a), Gen(b)),
         x: (Comp(0, Gen(f), Id(Gen(b))), Comp(0, Gen(h), Gen(g)))})
    text = assert_encoder_bytes(pres)
    assert serialize_document(parse_document(text)) == text
    # a level the encoder would write as false or 0.0 never reaches the writer
    for level in (False, True, 0.0, "0", None):
        with pytest.raises(TypeError, match="composition level must be an int"):
            Comp(level, Gen(f), Id(Gen(b)))


def test_random_documents_with_any_names_have_the_encoder_bytes():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    coeff = st.integers(min_value=-(2**63 - 1), max_value=2**63 - 1)

    @st.composite
    def complexes(draw):
        names = draw(st.lists(st.text(min_size=1, max_size=6), unique=True,
                              max_size=12))
        cuts = sorted(draw(st.lists(st.integers(0, len(names)), max_size=3)))
        levels = [names[i:j] for i, j in zip([0] + cuts, cuts + [len(names)])]
        diff = {}
        for q in range(1, len(levels)):
            for name in levels[q]:
                below = levels[q - 1]
                picked = draw(st.lists(st.sampled_from(below), unique=True)) \
                    if below else []
                diff[name] = IntVector({n: draw(coeff) for n in picked})
        aug = {name: draw(coeff) for name in levels[0]}
        return Adc(levels, diff, aug)

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(complexes())
    def adc_prop(complex_):
        text = assert_encoder_bytes(complex_)
        try:
            lawful = validate_adc(complex_).ok
        except CoefficientOverflow:
            lawful = False
        if lawful:
            assert parse_document(text) == complex_
        else:  # the parser refuses what is not a chain complex
            with pytest.raises((ValueError, CoefficientOverflow)) as refusal:
                parse_document(text)
            assert refusal.type is CoefficientOverflow or \
                str(refusal.value).startswith("not a chain complex: ")

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(st.integers(min_value=0, max_value=2**32 - 1),
                      st.lists(st.text(min_size=1, max_size=4), unique=True,
                               min_size=6, max_size=6))
    def presentation_prop(seed, fresh):
        pres = random_presentation(seed)
        rename = dict(zip(pres.all_generators(), fresh))

        def renamed(expr):
            if isinstance(expr, Gen):
                return Gen(rename[expr.name])
            if isinstance(expr, Id):
                return Id(renamed(expr.inner))
            return Comp(expr.level, renamed(expr.left), renamed(expr.right))

        odd = PolyPresentation(
            [[rename[n] for n in level] for level in pres.generators],
            {rename[n]: (renamed(s), renamed(t))
             for n in pres.all_generators() if pres.dim_of(n)
             for s, t in [pres.boundary_of(n)]})
        assert_encoder_bytes(odd)
        assert_encoder_bytes(lambda_presentation(odd))

    adc_prop()
    presentation_prop()


# ---------------------------------------------------------------------------
# error precedence: a document with two faults is refused for the one at the
# earlier stage (schema, degree cap, types and ranges of values, duplicate
# names, the names a differential or an expression reads, augmentation range,
# then the chain complex laws or the boundaries' composability), or for the
# earlier record within one stage

def _vertex(name, augmentation=1):
    return {"name": name, "dim": 0, "augmentation": augmentation}


def _cell(name, boundary, dim=1):
    return {"name": name, "dim": dim, "boundary": boundary}


def _gen(name, dim=0, src=None, tgt=None):
    record = {"name": name, "dim": dim}
    if dim:
        record["src"], record["tgt"] = src, tgt
    return record


def _g(name):
    return {"gen": name}


def _twice(level, expr):
    return {"comp": [level, expr, expr]}


OVER = 2**63  # the first value past the checked window
PRECEDENCE = [
    ("adc", "a duplicate, then a record that is not an object",
     [_vertex("a"), _vertex("b"), _cell("f", {"a": -1, "b": 1}), _vertex("a"), 7],
     DocumentError, "generator record 4 must be an object"),
    ("adc", "a duplicate, then an empty name",
     [_vertex("a"), _vertex("a"), _vertex("")],
     DocumentError, "generator record 2 needs a non-empty string name"),
    ("adc", "a duplicate, then a boundary that is not an object",
     [_vertex("a"), _vertex("a"), _cell("f", [])],
     DocumentError, "boundary of 'f' must be an object"),
    ("adc", "the degree cap, then a type error",
     [_vertex("a"), _cell("x", {}, MAX_DEGREE + 1), _cell("f", {"a": 1.5})],
     DegreeCapExceeded, "generator 'x' has degree 16385; the limit is 16384"),
    ("adc", "a type error, then the degree cap",
     [_vertex("a", "1"), _cell("x", {}, MAX_DEGREE + 1)],
     DegreeCapExceeded, "generator 'x' has degree 16385; the limit is 16384"),
    ("adc", "the degree cap, then a schema error",
     [_cell("x", {}, MAX_DEGREE + 1), {"name": "f", "dim": 1}],
     DocumentError, "generator record 1 ('f') is missing keys ['boundary']"),
    ("adc", "a type error, then a schema error",
     [_vertex("a", None), dict(_vertex("b"), extra=0)],
     DocumentError, "generator record 1 ('b') has unknown keys ['extra']"),
    ("adc", "an augmentation out of range, then a coefficient out of range",
     [_vertex("a", 2**70), _vertex("b"), _cell("f", {"a": OVER, "b": 1})],
     CoefficientOverflow, "coefficient %d exceeds the checked 64-bit range" % OVER),
    ("adc", "a coefficient out of range, then a type error",
     [_vertex("a"), _cell("f", {"a": -OVER}), _cell("g", {"a": True})],
     CoefficientOverflow, "coefficient %d exceeds the checked 64-bit range" % -OVER),
    ("adc", "a type error, then a coefficient out of range",
     [_vertex("a"), _cell("g", {"a": True}), _cell("f", {"a": -OVER})],
     DocumentError, "boundary of 'g' must map names to integers"),
    ("adc", "an unknown name in a differential, then a duplicate",
     [_vertex("a"), _cell("f", {"zz": 1}), _vertex("a")],
     ValueError, "duplicate generator name 'a'"),
    ("adc", "duplicates in two levels, the higher one first",
     [_vertex("a"), _cell("f", {"a": 1}), _cell("f", {"a": 1}), _vertex("b"),
      _vertex("b")],
     ValueError, "duplicate generator name 'b'"),
    ("adc", "an augmentation out of range, then an unknown name in a differential",
     [_vertex("a", OVER), _cell("f", {"zz": 1})],
     ValueError, "differential of 'f' mentions non-generators ['zz']"),
    ("adc", "an augmentation out of range, then a name two degrees down",
     [_vertex("a", -OVER), _vertex("b"), _cell("f", {"a": -1, "b": 1}),
      _cell("t", {"a": 1}, 2)],
     ValueError, "differential of 't' mentions non-generators ['a']"),
    ("adc", "an augmentation out of range, then a chain complex law",
     [_vertex("a", -OVER), _vertex("b"), _cell("f", {"b": 1}), _cell("t", {"f": 1}, 2)],
     CoefficientOverflow, "coefficient %d exceeds the checked 64-bit range" % -OVER),
    ("adc", "a duplicate, then a chain complex law",
     [_vertex("a"), _vertex("a"), _cell("f", {"a": 2})],
     ValueError, "duplicate generator name 'a'"),
    ("adc", "dd = 0 fails, and so does eps-d = 0",
     [_vertex("a"), _vertex("b", 2), _cell("f", {"b": 1}), _cell("t", {"f": 1}, 2)],
     ValueError, "not a chain complex: dd = 0 fails at 't' (IntVector(+1*b))"),
    ("polygraph", "an unknown name in an expression, then a record that is not an object",
     [_gen("a"), _gen("f", 1, _g("zz"), _g("a")), 3],
     DocumentError, "generator record 2 must be an object"),
    ("polygraph", "an unknown name in an expression, then a missing key",
     [_gen("a"), _gen("f", 1, _g("zz"), _g("a")), {"name": "g", "dim": 1, "src": _g("a")}],
     DocumentError, "generator record 2 ('g') is missing keys ['tgt']"),
    ("polygraph", "a malformed expression, then a missing key",
     [_gen("a"), _gen("f", 1, {"gen": 3}, _g("a")), {"name": "g", "dim": 1, "src": _g("a")}],
     DocumentError, "generator record 2 ('g') is missing keys ['tgt']"),
    ("polygraph", "two malformed expressions",
     [_gen("a"), _gen("f", 1, {"what": 1}, _g("a")), _gen("g", 1, [], _g("a"))],
     DocumentError, "unknown expression key in {'what': 1}"),
    ("polygraph", "a malformed expression, then a dimension out of reach",
     [_gen("a"), _gen("f", 1, {"gen": 3}, _g("a")), _gen("x", 50, _g("a"), _g("a"))],
     DocumentError, "gen expression needs a string name"),
    ("polygraph", "a duplicate, then a dimension out of reach",
     [_gen("a"), _gen("a"), _gen("x", 9, _g("a"), _g("a"))],
     ValueError, "dimension 9 of 'x' is out of reach: 3 generators and their "
                 "identity expressions reach dimension 2 at most"),
    ("polygraph", "an unknown name in an expression, then a duplicate",
     [_gen("a"), _gen("f", 1, _g("zz"), _g("a")), _gen("a")],
     ValueError, "duplicate generator name 'a'"),
    ("polygraph", "a duplicate, then a boundary that is not composable",
     [_gen("a"), _gen("f", 1, _g("a"), _g("a")), _gen("t", 2, _twice(1, _g("f")), _g("f")),
      _gen("a")],
     ValueError, "duplicate generator name 'a'"),
    ("polygraph", "a dimension fault above, declared before one below",
     [_gen("a"), _gen("t", 2, _g("a"), _g("f")), _gen("f", 1, _g("zz"), _g("a"))],
     ValueError, "unknown generator 'zz'"),
    ("polygraph", "a boundary that is not composable, then a dimension fault above",
     [_gen("a"), _gen("b"), _gen("f", 1, _g("a"), _g("b")),
      _gen("t", 2, _twice(0, _g("f")), _g("f")), _gen("u", 3, _g("a"), _g("a"))],
     ValueError, "source of 'u' has dimension 0, expected 2"),
    ("polygraph", "a boundary that is not composable above, declared before a "
                  "non-parallel one below",
     [_gen("a"), _gen("b"), _gen("f", 1, _g("a"), _g("b")), _gen("h", 1, _g("b"), _g("a")),
      _gen("u", 3, _twice(0, _g("t")), _g("t")), _gen("t", 2, _g("f"), _g("h"))],
     ValueError, "source and target of 't' are not parallel"),
]


@pytest.mark.parametrize("kind, label, records, error, message", PRECEDENCE,
                         ids=[label for _, label, *_ in PRECEDENCE])
def test_the_fault_at_the_earlier_stage_wins(kind, label, records, error, message):
    text = json.dumps({"kind": kind, "generators": records})
    with pytest.raises(error) as raised:
        parse_document(text)
    assert type(raised.value) is error
    assert str(raised.value) == message


def test_a_schema_error_wins_over_expressions_nested_too_deeply():
    # the shallowest depth at which the expression walk, but not the JSON
    # decoder, gives up; a later record that is not an object is named instead
    def doc(depth, *more):
        expr = '{"id": ' * depth + '{"gen": "0"}' + '}' * depth
        return ('{"kind": "polygraph", "generators": [{"name": "0", "dim": 0}, '
                '{"name": "x", "dim": %d, "src": %s, "tgt": %s}%s]}'
                % (depth + 1, expr, expr, "".join(", " + m for m in more)))

    for depth in range(1200, 0, -1):
        try:
            parse_document(doc(depth))
        except DocumentError as exc:
            if str(exc) == "expressions nested too deeply":
                break
        else:
            pytest.fail("no depth is refused by the expression walk alone")
    with pytest.raises(DocumentError, match="^generator record 2 must be an object$"):
        parse_document(doc(depth, "[]"))
    with pytest.raises(DocumentError, match="^expressions nested too deeply$"):
        parse_document(doc(depth, '{"name": "y", "dim": 0}'))
