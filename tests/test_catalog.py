"""The built-in catalog: shapes, invariants, and pinned classifications."""

import hashlib
import json
from itertools import combinations

import pytest

from conftest import (assert_construction_is_sound, catalog_presentations,
                      random_presentation, reference_linearization, truncated)
from polyadc import (
    IntVector,
    PolyPresentation,
    build,
    catalog,
    classify,
    cli,
    eval_table,
    lambda_presentation,
    linearize,
    loop_free_report,
    serialize_document,
    validate_adc,
)


def test_names_are_stable():
    assert catalog.names() == (
        "disk", "endo2cell", "forestA", "loop",
        "ordinal", "oriental", "sphere", "square", "theta2",
    )


def test_build_rejects_bad_requests():
    with pytest.raises(ValueError):
        build("moebius")
    with pytest.raises(ValueError):
        build("disk")  # missing parameter
    with pytest.raises(ValueError):
        build("disk", (-1,))
    with pytest.raises(ValueError):
        build("sphere", (-2,))
    with pytest.raises(ValueError):
        build("ordinal", (-1,))
    with pytest.raises(ValueError):
        build("oriental", (-1,))
    with pytest.raises(ValueError):
        build("theta2", ())
    with pytest.raises(ValueError):
        build("theta2", (2, 1))  # wrong number of widths
    with pytest.raises(ValueError):
        build("loop", (3,))


def test_disk_and_sphere_shapes():
    disk4 = build("disk", (4,)).as_presentation()
    assert [len(level) for level in disk4.generators] == [2, 2, 2, 2, 1]
    sphere2 = build("sphere", (2,)).as_presentation()
    assert [len(level) for level in sphere2.generators] == [2, 2, 2]
    assert build("sphere", (-1,)).as_adc().max_degree == -1
    for n in range(3):
        high = lambda_presentation(build("disk", (n + 1,)).as_presentation())
        low = lambda_presentation(build("sphere", (n,)).as_presentation())
        assert truncated(high, n) == low


def test_ordinal_and_theta_shapes():
    assert [len(level) for level in build("ordinal", (3,)).as_presentation().generators] == [4, 3]
    assert [len(level) for level in build("ordinal", (0,)).as_presentation().generators] == [1]
    theta = build("theta2", (3, 2, 0, 1)).as_presentation()
    assert [len(level) for level in theta.generators] == [4, 6, 3]


# The entries whose builders leave levels empty or let them be trimmed: their
# vertices and edges (name, source, target), all with augmentation 1.
EDGE_ENTRIES = [
    ("disk", (0,), ["c0"], []),
    ("sphere", (-1,), [], []),
    ("sphere", (0,), ["s0", "t0"], []),
    ("ordinal", (0,), ["v0"], []),
    ("theta2", (0,), ["v0"], []),
    ("theta2", (1, 0), ["v0", "v1"], [("f1_0", "v0", "v1")]),
]


def _canonical(kind, records):
    return json.dumps({"generators": records, "kind": kind}, indent=2,
                      sort_keys=True) + "\n"


@pytest.mark.parametrize("name, params, vertices, edges", EDGE_ENTRIES,
                         ids=["%s%s" % (e[0], list(e[1])) for e in EDGE_ENTRIES])
def test_the_edge_parameters_have_pinned_documents(name, params, vertices, edges):
    entry = build(name, params)
    assert serialize_document(entry.as_presentation()) == _canonical("polygraph", [
        {"dim": 0, "name": v} for v in vertices] + [
        {"dim": 1, "name": e, "src": {"gen": s}, "tgt": {"gen": t}}
        for e, s, t in edges])
    assert serialize_document(entry.as_adc()) == _canonical("adc", [
        {"augmentation": 1, "dim": 0, "name": v} for v in vertices] + [
        {"boundary": {s: -1, t: 1}, "dim": 1, "name": e} for e, s, t in edges])


def test_entries_do_not_share_their_expected_verdicts():
    for name, params in [("disk", (1,)), ("sphere", (1,)), ("ordinal", (1,)),
                         ("theta2", (1, 1)), ("oriental", (1,))]:
        first = build(name, params)
        first.expected["atomic"] = False
        assert build(name, params).expected == {"atomic": True, "strong_steiner": True}
        assert build("disk", (2,)).expected["atomic"] is True


def test_oriental_complex_counts_and_validity():
    from math import comb
    for n in range(5):
        k = build("oriental", (n,)).as_adc()
        assert [len(level) for level in k.basis] == [comb(n + 1, q + 1) for q in range(n + 1)]
        assert validate_adc(k).ok


def test_oriental_names_run_vertices_together_up_to_nine():
    for n in (3, 9):
        k = build("oriental", (n,)).as_adc()
        for q in range(n + 1):
            assert list(k.generators(q)) == [
                "".join(str(v) for v in c) for c in combinations(range(n + 1), q + 1)]


def test_oriental_names_are_separated_from_ten_on():
    k = build("oriental", (12,)).as_adc()
    assert validate_adc(k).ok
    assert len(list(k.all_generators())) == 2 ** 13 - 1
    assert "12" in k.generators(0) and "1-2" in k.generators(1)
    assert k.diff("0-1-12") == IntVector({"1-12": 1, "0-12": -1, "0-1": 1})


def test_oriental_presentation_linearizes_to_the_complex():
    for n in range(4):
        entry = build("oriental", (n,))
        assert lambda_presentation(entry.as_presentation()) == entry.as_adc()
    with pytest.raises(ValueError):
        build("oriental", (4,)).as_presentation()


# sha256 of `polyadc catalog oriental n --form polygraph`, from when these
# presentations were written out by hand
ORIENTAL_PRESENTATION_SHA256 = {
    0: "cd8dc523cdba7a96eb69221ef41d15c56a8b750c7e7b14145fc46214e44f3eeb",
    1: "fb3117c99208e9664ce04b1ce7d85c9c6ffd734a3a72dfa329dc33537c62fafc",
    2: "259c4b79c54beac2f00adc983cdf71500698a6eea66965f24bcbc422b0c7330b",
    3: "5484fb77ae73381ee7012fc10c3fadafcf2364aa691df7eebcf611025e7627db",
}


@pytest.mark.parametrize("n", sorted(ORIENTAL_PRESENTATION_SHA256))
def test_oriental_presentations_have_pinned_bytes(n, capsys):
    assert cli.main(["catalog", "oriental", str(n), "--form", "polygraph"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == \
        ORIENTAL_PRESENTATION_SHA256[n]


def test_adc_form_is_the_linearization():
    for name, params in [("disk", (3,)), ("theta2", (2, 1, 1)), ("square", ())]:
        entry = build(name, params)
        assert entry.as_adc() == lambda_presentation(entry.as_presentation())


def test_native_forms():
    assert build("oriental", (2,)).native == "adc"
    for name in ("disk", "sphere", "ordinal", "theta2", "loop",
                 "endo2cell", "square", "forestA"):
        params = {"disk": (1,), "sphere": (1,), "ordinal": (1,),
                  "theta2": (1, 1)}.get(name, ())
        assert build(name, params).native == "polygraph"


def test_every_pinned_classification_holds():
    entries = [
        build("disk", (3,)),
        build("sphere", (2,)),
        build("ordinal", (4,)),
        build("theta2", (3, 2, 0, 1)),
        build("oriental", (3,)),
        build("loop"),
        build("endo2cell"),
        build("square"),
        build("forestA"),
    ]
    for entry in entries:
        got = classify(entry.as_presentation()).as_dict()
        for key, want in entry.expected.items():
            assert got[key] == want, (entry.name, key)


def test_forest_has_a_genuine_linear_cycle():
    entry = build("forestA")
    lam = lambda_presentation(entry.as_presentation())
    rep = loop_free_report(lam)
    assert not rep.is_partial_order
    edges = rep.graph.edges
    cycle = rep.cycle
    for u, v in zip(cycle, cycle[1:] + cycle[:1]):
        assert (u, v) in edges


def test_forest_interchange_expressions():
    entry = build("forestA")
    pres = entry.as_presentation()
    h1, h2 = entry.expressions["H1"], entry.expressions["H2"]
    assert eval_table(pres, h1) == eval_table(pres, h2)
    want = IntVector({"A": 1, "B": 1})
    assert linearize(pres, h1) == want
    assert linearize(pres, h2) == want


SIZED = [("disk", (3,)), ("sphere", (2,)), ("ordinal", (4,)),
         ("theta2", (2, 1, 3)), ("oriental", (3,))]


@pytest.mark.parametrize("name, params", SIZED)
def test_the_size_cap_counts_generators_exactly(monkeypatch, name, params):
    count = len(list(build(name, params).as_adc().all_generators()))
    monkeypatch.setattr(catalog, "MAX_GENERATORS", count)
    build(name, params)
    monkeypatch.setattr(catalog, "MAX_GENERATORS", count - 1)
    with pytest.raises(catalog.CatalogCapExceeded,
                       match="has %d generators; the limit is %d" % (count, count - 1)):
        build(name, params)


def test_every_filed_generator_table_is_a_cell():
    # construction checks neither the cell conditions nor the chain complex
    # laws, and takes the linearization from the evaluated tables, on the
    # strength of this
    entries = [build(name, params) for name, params in SIZED]
    entries += [build(name) for name in ("loop", "endo2cell", "square", "forestA")]
    presentations = [e.presentation for e in entries if e.presentation is not None]
    presentations += [random_presentation(seed) for seed in range(120)]
    for pres in presentations:
        assert_construction_is_sound(pres)


def test_the_filled_linearization_is_the_validated_one():
    # construction fills the linearization from its own checked fields
    # without validating them again; it must be what validating them makes
    presentations = catalog_presentations()
    presentations += [random_presentation(seed, acyclic=acyclic)
                      for seed in range(300) for acyclic in (False, True)]
    for pres in presentations:
        # built afresh, so that no cache of the complex is filled yet
        pres = PolyPresentation(pres.generators, {
            name: pres.boundary_of(name) for name in pres.all_generators()
            if pres.dim_of(name)})
        lam, ref = lambda_presentation(pres), reference_linearization(pres)
        assert list(vars(lam).items()) == list(vars(ref).items())
        assert list(lam._diff) == list(ref._diff)
        assert lam == ref
        assert validate_adc(lam).ok
