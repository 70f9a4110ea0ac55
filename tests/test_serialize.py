"""JSON document round-trips, schema errors, and DOT export."""

import json

import pytest

from conftest import random_presentation
from polyadc import (
    Adc,
    Comp,
    DocumentError,
    Gen,
    Id,
    PolyPresentation,
    build,
    generating_relation,
    lambda_presentation,
    parse_document,
    serialize_document,
    to_dot,
)
from polyadc.serialize import expr_to_obj, obj_to_expr


def test_expression_round_trip():
    expr = Comp(1, Gen("023"), Comp(0, Gen("012"), Id(Gen("23"))))
    assert obj_to_expr(expr_to_obj(expr)) == expr


def test_expression_schema_errors():
    for bad in (
        [],
        {"gen": "a", "id": {"gen": "a"}},
        {"gen": 3},
        {"comp": [0, {"gen": "a"}]},
        {"comp": ["0", {"gen": "a"}, {"gen": "b"}]},
        {"what": 1},
    ):
        with pytest.raises(DocumentError):
            obj_to_expr(bad)


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
    g = generating_relation(k)
    dot = to_dot(g, {n: k.degree_of(n) for n in g.nodes})
    assert dot.startswith("digraph relation {")
    assert '"0" [label="0:0"];' in dot
    assert '"0" -> "01";' in dot
    assert dot.rstrip().endswith("}")
    forest = lambda_presentation(build("forestA").as_presentation())
    fg = generating_relation(forest)
    quoted = to_dot(fg, {n: forest.degree_of(n) for n in fg.nodes})
    assert '"alpha\'" [label="alpha\':2"];' in quoted


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
