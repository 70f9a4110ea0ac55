"""Presentations and their classifiers."""

import hashlib
import json

import pytest

from conftest import catalog_presentations, random_presentation, reachable_pairs
from polyadc import (
    CoefficientOverflow,
    Comp,
    Gen,
    Id,
    IntVector,
    PolyPresentation,
    Verdict,
    atom_to_table,
    build,
    classify,
    compose,
    eval_table,
    expr_dim,
    face_expr,
    is_valid_table,
    lambda_presentation,
    linearize,
    loop_free_report,
    parse_document,
    preorder_report,
    serialize_document,
)
from polyadc import cli, polygraph


def o2():
    return build("oriental", (2,)).as_presentation()


def test_construction_rejects_bad_presentations():
    with pytest.raises(ValueError):
        PolyPresentation([["a", "a"]], {})
    with pytest.raises(ValueError):
        PolyPresentation([["a"]], {"a": (Gen("a"), Gen("a"))})
    with pytest.raises(ValueError):
        PolyPresentation([["a"], ["f"]], {"f": (Gen("a"),)})
    with pytest.raises(ValueError):
        PolyPresentation([["a"], ["f"]], {"f": (Gen("a"), Gen("zzz"))})
    with pytest.raises(ValueError):
        PolyPresentation([["a"], ["f"]], {})  # missing boundary
    with pytest.raises(ValueError):
        # source of the wrong dimension
        PolyPresentation(
            [["a", "b"], ["f"], ["m"]],
            {"f": (Gen("a"), Gen("b")), "m": (Gen("a"), Id(Gen("f")))},
        )


def test_the_first_bad_generator_name_in_order_is_refused():
    bad = "generator names must be non-empty strings"
    with pytest.raises(ValueError, match=bad):
        PolyPresentation([["a", ["b"]]], {})  # a list is refused, not hashed
    with pytest.raises(ValueError, match=bad):
        PolyPresentation([["a", "", "a"]], {})  # the bad name comes first
    with pytest.raises(ValueError, match="duplicate generator name 'a'"):
        PolyPresentation([["a", "a", ""]], {})  # the duplicate comes first


def test_eval_table_refuses_an_unknown_generator():
    pres = o2()
    assert eval_table(pres, Gen("01")).rows[-1] == (IntVector.unit("01"),) * 2
    with pytest.raises(ValueError, match="unknown generator 'nope'"):
        eval_table(pres, Gen("nope"))
    with pytest.raises(ValueError, match="unknown generator 'nope'"):
        eval_table(pres, Comp(0, Gen("01"), Id(Gen("nope"))))


def test_construction_rejects_ill_typed_composites():
    with pytest.raises(ValueError):
        # f then f is not composable (f: a -> b)
        PolyPresentation(
            [["a", "b"], ["f"], ["m"]],
            {"f": (Gen("a"), Gen("b")),
             "m": (Comp(0, Gen("f"), Gen("f")), Comp(0, Gen("f"), Gen("f")))},
        )


def test_construction_rejects_non_parallel_boundaries():
    with pytest.raises(ValueError):
        PolyPresentation(
            [["a", "b", "c"], ["f", "g"], ["m"]],
            {"f": (Gen("a"), Gen("b")),
             "g": (Gen("b"), Gen("c")),
             "m": (Gen("f"), Gen("g"))},
        )


def test_endo_generators_are_legal():
    # a loop edge and a 2-cell from it to the identity
    pres = PolyPresentation(
        [["v"], ["e"], ["a"]],
        {"e": (Gen("v"), Gen("v")), "a": (Gen("e"), Id(Gen("v")))},
    )
    lam = lambda_presentation(pres)
    assert lam.diff("e").is_zero()
    table = eval_table(pres, Gen("e"))
    assert table.rows[0] == (IntVector.unit("v"), IntVector.unit("v"))
    assert is_valid_table(lam, table) == (True, None)


def test_expression_dimensions_and_errors():
    pres = o2()
    assert expr_dim(pres, Gen("0")) == 0
    assert expr_dim(pres, Id(Id(Gen("0")))) == 2
    assert expr_dim(pres, Comp(0, Gen("01"), Gen("12"))) == 1
    with pytest.raises(ValueError):
        expr_dim(pres, Comp(0, Gen("0"), Gen("01")))
    with pytest.raises(ValueError):
        expr_dim(pres, Comp(1, Gen("01"), Gen("12")))
    with pytest.raises(ValueError):
        expr_dim(pres, Gen("nope"))


def test_faces_of_expressions():
    pres = o2()
    assert face_expr(pres, Gen("012"), 1, -1) == Gen("02")
    assert face_expr(pres, Gen("012"), 1, +1) == Comp(0, Gen("01"), Gen("12"))
    assert face_expr(pres, Gen("012"), 0, -1) == Gen("0")
    assert face_expr(pres, Gen("012"), 0, +1) == Gen("2")
    assert face_expr(pres, Id(Gen("01")), 1, -1) == Gen("01")
    two = Comp(0, Gen("01"), Gen("12"))
    assert face_expr(pres, two, 0, -1) == Gen("0")
    assert face_expr(pres, two, 0, +1) == Gen("2")
    with pytest.raises(ValueError):
        face_expr(pres, Gen("012"), 2, -1)
    with pytest.raises(ValueError):
        face_expr(pres, Gen("012"), 0, 2)


def test_linearize_kills_identities():
    pres = o2()
    assert linearize(pres, Id(Gen("01"))).is_zero()
    both = Comp(0, Gen("01"), Gen("12"))
    assert expr_dim(pres, both) == 1
    assert linearize(pres, both) == IntVector({"01": 1, "12": 1})
    assert linearize(pres, Comp(1, Gen("012"), Id(Comp(0, Gen("01"), Gen("12"))))).support() \
        == {"012"}


def test_eval_table_matches_table_composition():
    pres = o2()
    lam = lambda_presentation(pres)
    via_expr = eval_table(pres, Comp(0, Gen("01"), Gen("12")))
    via_tables = compose(atom_to_table(lam, "01"), atom_to_table(lam, "12"), 0)
    assert via_expr == via_tables
    assert eval_table(pres, Gen("012")) == atom_to_table(lam, "012")


def test_atomicity_witnesses():
    assert classify(o2()).atomic
    sq = classify(build("square").as_presentation())
    assert not sq.atomic
    assert sq.atomic_witness == ("alpha", 1, frozenset({"f"}))
    endo = classify(build("endo2cell").as_presentation())
    assert endo.atomic_witness == ("alpha", 0, frozenset({"x"}))


def test_preorders_on_the_triangle():
    rep = preorder_report(o2())
    assert len(rep.codim1.edges) == 9
    assert len(rep.full.edges) == 11
    assert rep.codim1.edges < rep.full.edges
    assert rep.codim1_antisymmetric and rep.full_antisymmetric
    # on an atomic presentation the two closures agree
    assert reachable_pairs(rep.codim1) == reachable_pairs(rep.full)


def test_preorder_cycles():
    rep = preorder_report(build("loop").as_presentation())
    assert not rep.codim1_antisymmetric
    assert not rep.full_antisymmetric
    assert set(rep.full_cycle) == {"a", "f", "b", "g"}
    endo = preorder_report(build("endo2cell").as_presentation())
    assert endo.codim1_antisymmetric
    assert not endo.full_antisymmetric
    assert set(endo.full_cycle) == {"alpha", "x"}


def test_algebraic_loop_freeness():
    def loop_free(pres):
        return loop_free_report(lambda_presentation(pres)).is_partial_order

    assert loop_free(o2())
    assert loop_free(build("square").as_presentation())
    assert not loop_free(build("loop").as_presentation())
    assert not loop_free(build("forestA").as_presentation())


def test_orderability_witness_order_meets_every_constraint():
    pres = o2()
    rep = classify(pres)
    assert rep.steiner_orderable
    index = {name: i for i, name in enumerate(rep.steiner_order)}
    assert sorted(index) == sorted(pres.all_generators())
    for name in pres.all_generators():
        q = pres.dim_of(name)
        for p in range(q):
            below = linearize(pres, face_expr(pres, Gen(name), p, -1)).support()
            above = linearize(pres, face_expr(pres, Gen(name), p, +1)).support()
            for a in below:
                for b in above:
                    assert index[a] < index[b], (name, p, a, b)


def test_orderability_failures():
    assert classify(build("square").as_presentation()).steiner_cycle == ("f",)
    assert classify(build("endo2cell").as_presentation()).steiner_cycle == ("x",)
    loop = classify(build("loop").as_presentation())
    assert not loop.steiner_orderable
    assert set(loop.steiner_cycle) == {"a", "b"}


def test_classify_square():
    v = classify(build("square").as_presentation())
    assert not v.atomic
    assert v.atomic_witness == ("alpha", 1, frozenset({"f"}))
    assert not v.codim1_antisymmetric
    assert not v.strongly_loop_free_categorical
    assert v.strongly_loop_free_algebraic
    assert not v.steiner_orderable
    assert v.strong_steiner == v.full_antisymmetric
    d = v.as_dict()
    assert d["atomic_witness"] == ["alpha", 1, ["f"]]
    assert d["steiner_cycle"] == ["f"]


def test_classify_triangle_is_clean():
    v = classify(o2())
    assert v.atomic and v.full_antisymmetric and v.steiner_orderable
    assert v.atomic_witness is None and v.full_cycle is None
    assert v.as_dict()["strong_steiner"] is True


def test_a_verdict_lists_its_fields_and_the_two_aliases():
    for pres in (o2(), build("square").as_presentation(), build("loop").as_presentation()):
        d = classify(pres).as_dict()
        assert set(d) == set(Verdict._fields) | {"strongly_loop_free_categorical",
                                                 "strong_steiner"}
        assert len(d) == len(Verdict._fields) + 2


# sha256 of each verdict's ``json.dumps(as_dict(), sort_keys=True)`` plus a
# newline, over the catalog presentations and then random presentations
# 0..299, in the plain mode and then in the acyclic one
VERDICTS_DIGEST = "e51d2ad9d5e5a7d847deac8ea82140ac1bb6c9fca15211c19c9615bce8f709b6"


def test_the_verdicts_as_dicts_are_pinned():
    digest = hashlib.sha256()
    presentations = catalog_presentations() + [
        random_presentation(seed, acyclic) for acyclic in (False, True)
        for seed in range(300)]
    for pres in presentations:
        digest.update(json.dumps(classify(pres).as_dict(), sort_keys=True).encode() + b"\n")
    assert (len(presentations), digest.hexdigest()) == (622, VERDICTS_DIGEST)


# ---------------------------------------------------------------------------
# the analysis classify and preorder_report share, taken once and kept on
# the presentation

def presentations():
    return catalog_presentations() + [random_presentation(seed, acyclic=acyclic)
                                      for acyclic in (False, True) for seed in range(300)]


@pytest.fixture(scope="module")
def documents():
    return [serialize_document(pres) for pres in presentations()]


def count_walks(monkeypatch) -> list:
    """The presentations :func:`polygraph._walk` walks from now on, in order."""
    walked, walk = [], polygraph._walk

    def counting(pres):
        walked.append(pres)
        return walk(pres)

    monkeypatch.setattr(polygraph, "_walk", counting)
    return walked


CALL_ORDERS = {
    "classify first": (classify, preorder_report, classify, preorder_report),
    "preorder_report first": (preorder_report, classify, preorder_report, classify),
}


@pytest.mark.parametrize("calls", CALL_ORDERS.values(), ids=CALL_ORDERS)
def test_the_kept_analysis_gives_what_a_fresh_presentation_gives(documents, calls):
    for text in documents:
        fresh = {fn: fn(parse_document(text)) for fn in (classify, preorder_report)}
        pres = parse_document(text)
        for fn in calls:
            got = fn(pres)
            assert got == fresh[fn], text
            assert repr(got) == repr(fresh[fn]), text


@pytest.mark.parametrize("calls", CALL_ORDERS.values(), ids=CALL_ORDERS)
def test_a_presentation_is_walked_once_whatever_is_asked_of_it(documents, monkeypatch,
                                                               calls):
    walked = count_walks(monkeypatch)
    for text in documents:
        pres = parse_document(text)
        for fn in calls:
            fn(pres)
            assert walked == [pres], text
        walked.clear()


def test_construction_linearizing_and_writing_take_no_walk(documents, monkeypatch):
    walked = count_walks(monkeypatch)
    built = presentations()
    for text in documents:
        pres = parse_document(text)
        lambda_presentation(pres)
        assert serialize_document(pres) == text
    assert [serialize_document(pres) for pres in built] == documents
    assert walked == []


# ---------------------------------------------------------------------------
# a presentation whose cell tables are in range but whose row boundaries
# pass through 2**63 on the way

def endo_tower(height):
    """Vertices x, y; edges e1, e2 from x to y and e3, e4 back; a2 an endo
    2-cell on the loop e1 e3 e2 e4; each a(k+1) an endo cell on the 4-fold
    level-0 composite of a(k).  Row 1 of the table of a(k) is 4**(k-2)
    times e1 + e2 + e3 + e4."""
    generators = [["x", "y"], ["e1", "e2", "e3", "e4"]]
    boundary = {"e1": (Gen("x"), Gen("y")), "e2": (Gen("x"), Gen("y")),
                "e3": (Gen("y"), Gen("x")), "e4": (Gen("y"), Gen("x"))}
    side = Comp(0, Gen("e1"), Comp(0, Gen("e3"), Comp(0, Gen("e2"), Gen("e4"))))
    for k in range(2, height + 2):
        name = "a%d" % k
        generators.append([name])
        boundary[name] = (side, side)
        twice = Comp(0, Gen(name), Gen(name))
        side = Comp(0, twice, twice)
    return PolyPresentation(generators, boundary)


def exact_cell_conditions(complex_, table):
    """The boundary and augmentation conditions of a table, in Python's
    unbounded integers (no 64-bit check anywhere)."""
    def boundary(vec):
        out = {}
        for name, c in vec._entries.items():
            for below, d in complex_.diff(name)._entries.items():
                out[below] = out.get(below, 0) + c * d
        return {k: v for k, v in out.items() if v}

    for p in range(1, table.dim + 1):
        neg, pos = table.rows[p - 1]
        want = dict(pos._entries)
        for k, v in neg._entries.items():
            want[k] = want.get(k, 0) - v
        want = {k: v for k, v in want.items() if v}
        if any(boundary(vec) != want for vec in table.rows[p]):
            return False
    return all(complex_.eps(vec) == 1 for vec in table.rows[0])


def test_a_tower_whose_row_boundaries_pass_2_to_the_63_constructs(tmp_path, capsys):
    pres = endo_tower(32)
    lam = lambda_presentation(pres)
    assert lam.diff("e1") == lam.diff("e2") == IntVector({"x": -1, "y": 1})
    assert all(lam.diff("a%d" % k).is_zero() for k in range(2, 34))
    top = eval_table(pres, Gen("a33"))
    ring = IntVector({"e1": 1, "e2": 1, "e3": 1, "e4": 1})
    assert top.rows[1] == (ring.scaled(2**62), ring.scaled(2**62))
    assert exact_cell_conditions(lam, top)
    # the boundary of row 1 is 0, but in name order its partial sum at x
    # reaches -2**63 (e1 then e2), out of the checked range
    with pytest.raises(CoefficientOverflow, match=str(-2**63)):
        lam.boundary_vec(1, top.rows[1][0])
    # one storey lower every partial sum stays in range
    below = eval_table(pres, Gen("a32"))
    assert is_valid_table(lam, below) == (True, None)
    # through the command line: linearized, and classified (endo cells are
    # not unital), not refused with exit 5
    doc = tmp_path / "tower.json"
    doc.write_text(serialize_document(pres))
    assert cli.main(["lambda", str(doc)]) == 0
    assert cli.main(["check", str(doc)]) == 4
    assert "error" not in capsys.readouterr().err
