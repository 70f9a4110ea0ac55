"""Complexes: structure, validation, atoms, and the generating relation."""

import pytest

from conftest import successors
from polyadc import (
    Adc,
    CoefficientOverflow,
    IntVector,
    atom_to_table,
    build,
    enumerate_nu,
    is_strong_steiner_complex,
    lambda_presentation,
    loop_free_report,
    parse_document,
    serialize_document,
    unitality_failures,
    validate_adc,
    verify_equivalence,
)
from polyadc.adc import _atom, antisymmetry_of


def simplex2():
    return build("oriental", (2,)).as_adc()


def test_construction_checks_names():
    with pytest.raises(ValueError):
        Adc([["a", "a"]], {}, {"a": 1})
    with pytest.raises(ValueError):
        Adc([["a"]], {}, {})  # missing augmentation
    with pytest.raises(ValueError):
        Adc([["a"], ["f"]], {}, {"a": 1})  # missing differential
    with pytest.raises(ValueError):
        Adc([["a"], ["f"]], {"f": IntVector({"zzz": 1})}, {"a": 1})
    with pytest.raises(ValueError):
        Adc([["a"]], {"a": IntVector()}, {"a": 1})
    # trailing empty levels are trimmed
    assert Adc([["a"], []], {}, {"a": 1}).max_degree == 0


def test_the_first_bad_name_in_order_is_refused():
    bad = "generator names must be non-empty strings"
    with pytest.raises(ValueError, match=bad):
        Adc([["a", ["b"]]], {}, {"a": 1})  # a list is refused, not hashed
    with pytest.raises(ValueError, match=bad):
        Adc([["a", "", "a"]], {}, {"a": 1})  # the bad name comes first
    with pytest.raises(ValueError, match="duplicate generator name 'a'"):
        Adc([["a", "a", ""]], {}, {"a": 1})  # the duplicate comes first
    with pytest.raises(ValueError, match="duplicate generator name 'a'"):
        Adc([["a"], ["a", 7]], {}, {"a": 1})


@pytest.mark.parametrize("value", [2**63 - 1, -(2**63 - 1)])
def test_augmentations_at_the_edge_of_the_window_are_kept(value):
    assert Adc([["a"]], {}, {"a": value}).eps_gen("a") == value


@pytest.mark.parametrize("value", [2**63, -2**63, 2**70])
def test_augmentations_outside_the_window_overflow(value):
    with pytest.raises(CoefficientOverflow,
                       match="coefficient %d exceeds the checked 64-bit range" % value):
        Adc([["a", "b"]], {}, {"a": 1, "b": value})


def test_accessors_on_the_triangle():
    k = simplex2()
    assert k.max_degree == 2
    assert k.generators(1) == ("01", "02", "12")
    assert k.generators(9) == ()
    assert k.degree_of("012") == 2
    assert k.diff("01") == IntVector({"1": 1, "0": -1})
    assert k.eps_gen("0") == 1
    assert k.eps(IntVector({"0": 2, "1": -1})) == 1
    with pytest.raises(ValueError):
        k.diff("0")
    with pytest.raises(ValueError):
        k.eps_gen("01")
    with pytest.raises(ValueError):
        k.chain(1, IntVector({"012": 1}))


def test_a_chain_is_its_vector_checked_against_its_degree():
    k = simplex2()
    assert k.chain(1, {"01": 2, "12": -1}) == IntVector({"01": 2, "12": -1})
    assert k.chain(0, IntVector()) == IntVector()
    for q, vector in ((1, {"01": 1, "0": 1}), (2, {"01": 1}), (0, {"x": 1}), (3, {"012": 1})):
        with pytest.raises(ValueError, match="chain mentions non-generators"):
            k.chain(q, vector)


def test_boundary_is_linear():
    k = simplex2()
    c = k.chain(2, IntVector({"012": 3}))
    assert k.boundary_vec(2, c) == IntVector({"01": 3, "12": 3, "02": -3})
    assert k.boundary_vec(1, k.diff("012")).is_zero()
    with pytest.raises(ValueError):
        k.boundary_vec(0, IntVector({"0": 1}))


def test_validate_accepts_the_triangle():
    assert validate_adc(simplex2()).ok


def test_validate_reports_broken_square_of_the_differential():
    # wrong sign on the 01 face: d(012) = 12 + 02 + 01
    broken = Adc(
        [["0", "1", "2"], ["01", "02", "12"], ["012"]],
        {
            "01": IntVector({"1": 1, "0": -1}),
            "02": IntVector({"2": 1, "0": -1}),
            "12": IntVector({"2": 1, "1": -1}),
            "012": IntVector({"12": 1, "02": 1, "01": 1}),
        },
        {"0": 1, "1": 1, "2": 1},
    )
    rep = validate_adc(broken)
    assert not rep.ok
    law, name, _ = rep.failures[0]
    assert (law, name) == ("dd", "012")


def test_validate_reports_broken_augmentation():
    broken = Adc(
        [["a", "b"], ["f"]],
        {"f": IntVector({"a": 1, "b": 1})},
        {"a": 1, "b": 1},
    )
    rep = validate_adc(broken)
    assert not rep.ok
    assert rep.failures[0][:2] == ("eps-d", "f")


def test_the_augmentation_checks_each_product_and_partial_sum():
    k = Adc([["a", "b", "c"]], {}, {"a": 2**62, "b": 2**62, "c": -(2**62)})
    with pytest.raises(CoefficientOverflow, match="coefficient %d " % 2**64):
        k.eps(IntVector({"a": 4}))  # the product
    # the terms are taken in name order: a + b leaves the window before c
    # brings the total back to 2**62
    with pytest.raises(CoefficientOverflow, match="coefficient %d " % 2**63):
        k.eps(IntVector({"c": 1, "b": 1, "a": 1}))
    assert k.eps(IntVector({"a": 1, "c": 1})) == 0
    assert k.eps(IntVector({"b": -1})) == -(2**62)


def test_validation_and_atoms_overflow_on_an_augmentation_sum():
    k = Adc([["a", "b"], ["e"]], {"e": IntVector({"a": 4, "b": -3})},
            {"a": 2**62, "b": 1})
    with pytest.raises(CoefficientOverflow):
        validate_adc(k)
    with pytest.raises(CoefficientOverflow):
        unitality_failures(k)


def dd_broken():
    """dd t = b - c, while every augmentation is 1 and every atom's
    augmentations are (1, 1)."""
    return Adc([["a", "b", "c"], ["e", "f"], ["t"]],
               {"e": IntVector({"a": -1, "b": 1}), "f": IntVector({"a": -1, "c": 1}),
                "t": IntVector({"e": 1, "f": -1})},
               {"a": 1, "b": 1, "c": 1})


def test_a_broken_complex_still_constructs_and_is_reported_on():
    # parsing its document refuses it (tests/test_serialize.py)
    k = dd_broken()
    assert validate_adc(k).failures == (("dd", "t", "IntVector(+1*b -1*c)"),)


def test_a_complex_that_breaks_dd_is_not_strong_steiner():
    k = dd_broken()
    assert unitality_failures(k) == ()
    assert _atom(k, "t")[1] == 2
    assert not is_strong_steiner_complex(k)
    rep = verify_equivalence(k)
    assert (rep.ok, rep.reason) == (False, "not a strong Steiner complex")
    # the enumeration and the parser refuse it with one message
    message = "not a chain complex: dd = 0 fails at 't' (IntVector(+1*b -1*c))"
    with pytest.raises(ValueError) as enumerated:
        enumerate_nu(k)
    with pytest.raises(ValueError) as parsed:
        parse_document(serialize_document(k))
    assert str(enumerated.value) == str(parsed.value) == message


def test_atom_table_of_the_triangle():
    rows = atom_to_table(simplex2(), "012").rows
    assert len(rows) - 1 == 2
    assert rows == (
        (IntVector({"0": 1}), IntVector({"2": 1})),
        (IntVector({"02": 1}), IntVector({"01": 1, "12": 1})),
        (IntVector({"012": 1}), IntVector({"012": 1})),
    )


def test_atom_tables_are_built_once_per_complex():
    k = build("oriental", (3,)).as_adc()
    first = {name: atom_to_table(k, name).rows for name in k.all_generators()}
    assert is_strong_steiner_complex(k)
    enum = enumerate_nu(k)
    assert all(atom_to_table(k, name).rows is rows for name, rows in first.items())
    assert all(table.rows is first[name] for table, name in enum.atom_names.items())
    # an equal complex built anew builds its own
    again = build("oriental", (3,)).as_adc()
    assert again == k and atom_to_table(again, "0123").rows is not first["0123"]
    assert atom_to_table(again, "0123").rows == first["0123"]


def test_unitality():
    assert unitality_failures(simplex2()) == ()
    lam = lambda_presentation(build("endo2cell").as_presentation())
    assert unitality_failures(lam) == (("alpha", 0, 0),)


def test_generating_relation_of_the_triangle():
    rep = loop_free_report(simplex2())
    assert set(rep.graph.edges) == {
        ("0", "01"), ("01", "1"),
        ("0", "02"), ("02", "2"),
        ("1", "12"), ("12", "2"),
        ("02", "012"), ("012", "01"), ("012", "12"),
    }
    assert rep.is_partial_order and rep.cycle is None


def test_relation_graph_cycle_witness():
    nodes, edges = ("a", "b", "c", "d"), {("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")}
    ok, cycle = antisymmetry_of(nodes, successors(nodes, edges))
    assert not ok
    assert len(cycle) >= 2
    assert set(cycle) <= {"a", "b", "c"}
    # the witness really is a cycle
    for u, v in zip(cycle, cycle[1:] + cycle[:1]):
        assert (u, v) in edges


def test_relation_graph_self_loops_witness_no_cycle():
    # a self-loop is a component of one node; inside a larger component the
    # witness still goes through another node
    assert antisymmetry_of(("a",), {"a": ["a"]}) == (True, None)
    assert antisymmetry_of(("a", "b"), {"a": ["a", "b"], "b": ["a"]}) == (False, ("b", "a"))


def test_strong_steiner_judgement():
    assert is_strong_steiner_complex(simplex2())
    loop = lambda_presentation(build("loop").as_presentation())
    assert not is_strong_steiner_complex(loop)
    rep = loop_free_report(loop)
    assert not rep.is_partial_order
    assert set(rep.cycle) == {"a", "b", "f", "g"}


# ---------------------------------------------------------------------------
# where a boundary overflows

def partial_sum_overflow():
    """A complex whose 2-generator ``f`` has a boundary that is zero, but
    whose terms, added in name order, pass -2**63 at vertex ``x``: -2**62
    from ``e1``, -2**62 more from ``e2``, and only then +2**62 from ``e3``
    and ``e4``."""
    big = 2**62
    return Adc(
        [["x", "y"], ["e1", "e2", "e3", "e4"], ["f"]],
        {"e1": IntVector({"x": -big, "y": big}),
         "e2": IntVector({"x": -big, "y": big}),
         "e3": IntVector({"x": big, "y": -big}),
         "e4": IntVector({"x": big, "y": -big}),
         "f": IntVector({"e4": 1, "e3": 1, "e2": 1, "e1": 1})},
        {"x": 1, "y": 1},
    )


def first_name_overflow():
    """A complex where every product of a boundary leaves the checked
    range; the term whose name sorts first is checked first, although the
    chains and the differential list the other one first."""
    return Adc(
        [["y", "z"], ["x"], ["b", "a"]],
        {"x": IntVector({"z": 2**40, "y": 2**41}),
         "b": IntVector({"x": 2**31}),
         "a": IntVector({"x": 2**30})},
        {"y": 1, "z": 1},
    )


def test_a_partial_sum_out_of_range_overflows_in_every_path():
    k = partial_sum_overflow()
    ones = IntVector({"e4": 1, "e3": 1, "e2": 1, "e1": 1})
    # in another order the terms stay in range and cancel
    assert sum(k.diff(e)["x"] for e in ("e1", "e3", "e2", "e4")) == 0
    message = "coefficient %d exceeds the checked 64-bit range" % -2**63
    with pytest.raises(CoefficientOverflow, match=message):
        k.boundary_vec(1, ones)
    for _ in range(2):  # nothing half-built is kept
        with pytest.raises(CoefficientOverflow, match=message):
            atom_to_table(k, "f")
    assert k.boundary_vec(1, IntVector({"e1": 1, "e3": 1})) == IntVector()


def test_the_term_whose_name_sorts_first_overflows_first():
    k = first_name_overflow()
    # the differential of x lists z first; y sorts first: 2**30 * 2**41
    on_y = "coefficient %d exceeds" % 2**71
    with pytest.raises(CoefficientOverflow, match=on_y):
        k.boundary_vec(1, IntVector({"x": 2**30}))
    with pytest.raises(CoefficientOverflow, match=on_y):
        atom_to_table(k, "a")  # row 1 is 2**30 x
    with pytest.raises(CoefficientOverflow, match="coefficient %d exceeds" % 2**72):
        atom_to_table(k, "b")  # row 1 is 2**31 x
    # the chain lists b first; a sorts first: 2**35 * 2**30, not 2**33 * 2**31
    chain = IntVector({"b": 2**33, "a": 2**35})
    on_a = "coefficient %d exceeds" % 2**65
    with pytest.raises(CoefficientOverflow, match=on_a):
        k.boundary_vec(2, chain)
    assert atom_to_table(k, "x").rows[0] == (IntVector(), IntVector({"y": 2**41, "z": 2**40}))


def test_classifying_a_presentation_as_a_complex_is_a_type_error():
    pres = build("oriental", (2,)).presentation
    with pytest.raises(TypeError, match="expected an Adc, got PolyPresentation; "
                                        "linearize a presentation with lambda_presentation"):
        is_strong_steiner_complex(pres)
    assert is_strong_steiner_complex(lambda_presentation(pres))
