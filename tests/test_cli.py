import json
import os
import subprocess
import sys
import tracemalloc

import pytest

from polyadc import cli, parse_document


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def export(tmp_path, name, *params, form="adc"):
    out = tmp_path / ("%s-%s.json" % (name, form))
    argv = ["catalog", name]
    argv.extend(str(p) for p in params)
    argv.extend(["--form", form, "--out", str(out)])
    assert cli.main(argv) == 0
    return out


def test_usage_errors(capsys, tmp_path):
    code, _, err = run([], capsys)
    assert code == 1
    assert "usage error" in err

    code, _, err = run(["check"], capsys)
    assert code == 1
    assert "usage error" in err

    code, _, err = run(["oracle", str(tmp_path / "x.json")], capsys)
    assert code == 1  # --dim is required


@pytest.mark.parametrize("argv", [
    ["enumerate", "--max-dim", "-3"],
    ["enumerate", "--max-cells", "-1"],
    ["roundtrip", "--max-coeff", "-2"],
    ["oracle", "--dim", "-1"],
    ["oracle", "--dim", "1", "--cap", "-2"],
], ids=lambda argv: argv[-2])
def test_negative_sizes_are_usage_errors(argv, capsys, tmp_path):
    doc = export(tmp_path, "oriental", 2)
    code, out, err = run(argv + [str(doc)], capsys)
    assert code == 1
    assert out == ""
    assert "usage error: argument %s: expected a non-negative integer, got %r" \
        % (argv[-2], argv[-1]) in err


def test_unreadable_file(capsys, tmp_path):
    code, _, err = run(["check", str(tmp_path / "absent.json")], capsys)
    assert code == 2
    assert "document error: cannot read" in err


def test_malformed_json(capsys, tmp_path):
    doc = tmp_path / "bad.json"
    doc.write_text("not json")
    code, _, err = run(["check", str(doc)], capsys)
    assert code == 2
    assert "document error: invalid JSON" in err


def test_semantically_broken_document(capsys, tmp_path):
    doc = tmp_path / "dup.json"
    doc.write_text(json.dumps({
        "kind": "adc",
        "generators": [
            {"name": "v", "dim": 0, "augmentation": 1},
            {"name": "v", "dim": 0, "augmentation": 1},
        ],
    }))
    code, _, err = run(["check", str(doc)], capsys)
    assert code == 3
    assert "validation error" in err
    assert "duplicate generator name 'v'" in err


def _gen(name):
    return {"gen": name}


def _comp(level, left, right):
    return {"comp": [level, left, right]}


_PATH = [{"name": "a", "dim": 0}, {"name": "b", "dim": 0}, {"name": "c", "dim": 0},
         {"name": "f", "dim": 1, "src": _gen("a"), "tgt": _gen("b")},
         {"name": "g", "dim": 1, "src": _gen("b"), "tgt": _gen("c")}]


def _two_cell(src, tgt):
    return {"name": "alpha", "dim": 2, "src": src, "tgt": tgt}


CONSTRUCTION_ERRORS = {
    "unknown generator": (
        [_two_cell(_gen("f"), _gen("z"))],
        "unknown generator 'z'"),
    "source of the wrong dimension": (
        [_two_cell(_gen("a"), _gen("f"))],
        "source of 'alpha' has dimension 0, expected 1"),
    "target of the wrong dimension": (
        [_two_cell(_gen("f"), {"id": _gen("f")})],
        "target of 'alpha' has dimension 2, expected 1"),
    "composition level": (
        [_two_cell(_comp(1, _gen("f"), _gen("g")), _gen("f"))],
        "DIM: level-1 composition of 1-cells"),
    "composition across dimensions": (
        [_two_cell(_gen("f"), _comp(0, _gen("f"), _gen("c")))],
        "composition of cells of different dimensions 1 and 0"),
    "not composable": (
        [_two_cell(_comp(0, _gen("g"), _gen("f")), _comp(0, _gen("f"), _gen("g")))],
        "boundary of 'alpha' is not composable: p-target of the first factor "
        "differs from p-source of the second (p=0)"),
    "not parallel": (
        [_two_cell(_gen("f"), _gen("g"))],
        "source and target of 'alpha' are not parallel"),
    "dimension out of reach": (
        [{"name": "x", "dim": 9, "src": _gen("f"), "tgt": _gen("f")}],
        "dimension 9 of 'x' is out of reach: 6 generators and their identity "
        "expressions reach dimension 5 at most"),
    # the dimension check of every generator runs before any boundary is
    # evaluated, so it wins over a composability error at a lower generator
    "dimension above composability": (
        [_two_cell(_comp(0, _gen("g"), _gen("f")), _comp(0, _gen("f"), _gen("g"))),
         {"name": "T", "dim": 3, "src": _gen("f"), "tgt": _gen("alpha")}],
        "source of 'T' has dimension 1, expected 2"),
}


@pytest.mark.parametrize("case", sorted(CONSTRUCTION_ERRORS))
def test_construction_error_messages(case, capsys, tmp_path):
    records, message = CONSTRUCTION_ERRORS[case]
    text = json.dumps({"kind": "polygraph", "generators": _PATH + records})
    with pytest.raises(ValueError) as info:
        parse_document(text)
    assert type(info.value) is ValueError
    assert str(info.value) == message
    doc = tmp_path / "doc.json"
    doc.write_text(text)
    for command in READERS:
        assert run(command + [str(doc)], capsys) == (
            3, "", "validation error: %s\n" % message)


def test_check_complex_document(capsys, tmp_path):
    doc = export(tmp_path, "oriental", 2)
    code, out, _ = run(["check", str(doc)], capsys)
    assert code == 0
    assert "unital: yes" in out
    assert "generating relation is a partial order: yes" in out
    assert "strong Steiner: yes" in out


def test_check_square_reports_failures(capsys, tmp_path):
    doc = export(tmp_path, "square", form="polygraph")
    code, out, _ = run(["check", str(doc)], capsys)
    assert code == 4
    assert "atomic: no" in out
    assert "atomicity violated at (alpha, 1): {f}" in out
    assert "codim-1 preorder antisymmetric: no" in out
    assert "algebraically loop-free: yes" in out
    assert "orderable: no" in out
    assert "constraint cycle: f -> f" in out
    assert "strong Steiner: no" in out


def test_check_json_verdicts(capsys, tmp_path):
    doc = export(tmp_path, "square", form="polygraph")
    code, out, _ = run(["check", "--json", str(doc)], capsys)
    assert code == 4
    verdict = json.loads(out)
    assert verdict["atomic"] is False
    assert verdict["atomic_witness"] == ["alpha", 1, ["f"]]
    assert verdict["codim1_cycle"] == ["alpha", "f"]
    assert verdict["steiner_cycle"] == ["f"]
    assert verdict["strongly_loop_free_algebraic"] is True
    assert verdict["strong_steiner"] is False

    doc = export(tmp_path, "oriental", 2, form="polygraph")
    code, out, _ = run(["check", "--json", str(doc)], capsys)
    assert code == 0
    verdict = json.loads(out)
    assert verdict["strong_steiner"] is True
    assert verdict["steiner_order"] == ["0", "1", "2", "02", "01", "12", "012"]
    assert verdict["atomic_witness"] is None


def test_enumerate_counts(capsys, tmp_path):
    doc = export(tmp_path, "oriental", 2)
    code, out, _ = run(["enumerate", str(doc)], capsys)
    assert code == 0
    assert "dim 0: 3 cells, 3 nontrivial" in out
    assert "dim 2: 8 cells, 1 nontrivial" in out
    assert "total: 18" in out

    code, out, _ = run(["enumerate", "--json", str(doc)], capsys)
    assert code == 0
    assert json.loads(out) == {
        "counts": {
            "0": {"cells": 3, "nontrivial": 3},
            "1": {"cells": 7, "nontrivial": 4},
            "2": {"cells": 8, "nontrivial": 1},
        },
        "max_dim": 2,
        "total": 18,
    }


def test_enumerate_error_paths(capsys, tmp_path):
    doc = export(tmp_path, "endo2cell", form="polygraph")
    code, _, err = run(["enumerate", str(doc)], capsys)
    assert code == 3
    assert "not unital enough to enumerate" in err

    doc = export(tmp_path, "loop", form="polygraph")
    code, _, err = run(["enumerate", str(doc)], capsys)
    assert code == 5
    assert "resource error [ENUM_CAP]" in err

    code, out, _ = run(["enumerate", "--max-dim", "0", str(doc)], capsys)
    assert code == 0
    assert "dim 0: 2 cells, 2 nontrivial" in out


def test_lambda_matches_catalog_export(capsys, tmp_path):
    adc_doc = export(tmp_path, "oriental", 2)
    pres_doc = export(tmp_path, "oriental", 2, form="polygraph")
    out = tmp_path / "lam.json"
    code, _, _ = run(["lambda", "--out", str(out), str(pres_doc)], capsys)
    assert code == 0
    assert out.read_text() == adc_doc.read_text()

    # a complex document passes through unchanged
    code, text, _ = run(["lambda", str(adc_doc)], capsys)
    assert code == 0
    assert json.loads(text) == json.loads(adc_doc.read_text())


def test_preorder_summary_and_dot(capsys, tmp_path):
    doc = export(tmp_path, "oriental", 2, form="polygraph")
    dot = tmp_path / "rel.dot"
    code, out, _ = run(["preorder", "--dot", str(dot), str(doc)], capsys)
    assert code == 0
    assert "nodes: 7, edges: 11" in out
    assert "antisymmetric: yes" in out
    text = dot.read_text()
    assert text.startswith("digraph relation {")
    assert '"0" -> "01";' in text

    doc = export(tmp_path, "loop", form="polygraph")
    code, out, _ = run(["preorder", "--json", str(doc)], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["antisymmetric"] is False
    assert payload["nodes"] == ["a", "b", "f", "g"]
    assert set(payload["cycle"]) == {"a", "b", "f", "g"}
    assert ["f", "b"] in payload["edges"]


def test_roundtrip_outcomes(capsys, tmp_path):
    doc = export(tmp_path, "oriental", 2)
    code, out, _ = run(["roundtrip", str(doc)], capsys)
    assert code == 0
    assert "dim 1: 7 cells, rank 3" in out
    assert "roundtrip: ok (atoms form a basis and recover the complex)" in out

    doc = export(tmp_path, "loop", form="polygraph")
    code, out, _ = run(["roundtrip", str(doc)], capsys)
    assert code == 4
    assert "roundtrip: failed (not a strong Steiner complex)" in out

    doc = export(tmp_path, "oriental", 3)
    code, _, err = run(["roundtrip", "--max-cells", "10", str(doc)], capsys)
    assert code == 5
    assert "more than 10 cells" in err


def test_roundtrip_json_outcomes(capsys, tmp_path):
    doc = export(tmp_path, "oriental", 2)
    code, out, err = run(["roundtrip", "--json", str(doc)], capsys)
    assert (code, err) == (0, "")
    assert out == json.dumps({
        "cell_counts": {"0": 3, "1": 7, "2": 8},
        "ok": True,
        "ranks": {"0": 3, "1": 3, "2": 1},
        "reason": None,
    }, indent=2, sort_keys=True) + "\n"

    doc = export(tmp_path, "loop", form="polygraph")
    code, out, err = run(["roundtrip", "--json", str(doc)], capsys)
    assert (code, err) == (4, "")
    # refused before enumeration, so no degree has a count
    assert out == json.dumps({
        "cell_counts": {},
        "ok": False,
        "ranks": {},
        "reason": "not a strong Steiner complex",
    }, indent=2, sort_keys=True) + "\n"


def test_check_and_preorder_print_the_cycle_of_a_complex(capsys, tmp_path):
    doc = export(tmp_path, "loop")
    code, out, err = run(["check", str(doc)], capsys)
    assert (code, err) == (4, "")
    assert out == ("unital: yes\n"
                   "generating relation is a partial order: no\n"
                   "  cycle: f -> b -> g -> a -> f\n"
                   "strong Steiner: no\n")

    code, out, err = run(["preorder", str(doc)], capsys)
    assert (code, err) == (0, "")
    assert out == ("nodes: 4, edges: 4\n"
                   "antisymmetric: no\n"
                   "  cycle: f -> b -> g -> a -> f\n")


def test_cap_errors_say_how_far_the_run_got(capsys, tmp_path):
    doc = export(tmp_path, "oriental", 4)
    code, out, err = run(["roundtrip", str(doc), "--max-cells", "50"], capsys)
    assert (code, out) == (5, "")
    assert err == ("resource error [ENUM_CAP]: more than 50 cells "
                   "(degree 1 had reached 29); raise --max-cells\n")

    doc = export(tmp_path, "loop", form="polygraph")
    code, out, err = run(["enumerate", str(doc), "--max-coeff", "1"], capsys)
    assert (code, out) == (5, "")
    assert err == ("resource error [ENUM_CAP]: coefficient 2 above 1 in a "
                   "1-cell (after 8 cells); raise --max-coeff\n")


def test_oracle_counts(capsys, tmp_path):
    doc = export(tmp_path, "oriental", 2)
    code, out, _ = run(["oracle", "--dim", "1", "--cap", "2", str(doc)], capsys)
    assert code == 0
    assert "dim 1 with coefficients up to 2: 7 cells, 4 nontrivial" in out

    code, out, _ = run(
        ["oracle", "--dim", "1", "--cap", "2", "--json", str(doc)], capsys)
    assert code == 0
    assert json.loads(out) == {"dim": 1, "cap": 2, "cells": 7, "nontrivial": 4}


def test_oracle_refuses_a_huge_candidate_space(capsys, tmp_path):
    # 9**5 vectors in degree 0 and 9**10 in degree 1: refused before any is built
    doc = export(tmp_path, "oriental", 4)
    code, out, err = run(["oracle", "--dim", "1", "--cap", "8", str(doc)], capsys)
    assert code == 5
    assert out == ""
    assert ("resource error [ENUM_CAP]: brute force needs more than 1000000 "
            "candidate vectors by degree 1 with coefficients up to 8; "
            "lower --cap or --dim") in err


def test_oracle_pads_the_cells_above_the_top_degree(capsys, tmp_path):
    # above degree 2 the cell conditions force every row: the 2-cells are
    # padded with zero rows, so all are identities
    doc = export(tmp_path, "oriental", 2)
    code, out, err = run(["oracle", "--dim", "1200", str(doc)], capsys)
    assert (code, err) == (0, "")
    assert out == "dim 1200 with coefficients up to 3: 8 cells, 0 nontrivial\n"


def test_oracle_searches_a_tall_complex_without_recursion(capsys, tmp_path):
    # one vertex and one 1200-cell over it: the search walks 1200 degrees
    doc = tmp_path / "tall.json"
    doc.write_text('{"kind": "adc", "generators": [{"name": "v", "dim": 0, '
                   '"augmentation": 1}, {"name": "a", "dim": 1200, "boundary": {}}]}')
    code, out, err = run(["oracle", "--dim", "1200", "--cap", "1", str(doc)], capsys)
    assert (code, err) == (0, "")
    assert out == "dim 1200 with coefficients up to 1: 2 cells, 1 nontrivial\n"


def test_oracle_refuses_padding_past_the_cap_before_building_it(capsys, tmp_path):
    doc = export(tmp_path, "oriental", 2)
    tracemalloc.start()
    try:
        code, out, err = run(["oracle", "--dim", "1000000000", str(doc)], capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (5, "")
    assert err == ("resource error [ENUM_CAP]: brute force would pad 8 cells of "
                   "degree 2 with 999999998 zero rows each, more than 1000000 rows; "
                   "lower --dim\n")
    assert peak < 10**6


@pytest.mark.parametrize("argv", [["lambda", "{doc}", "--out"],
                                  ["catalog", "oriental", "2", "--out"],
                                  ["preorder", "{doc}", "--dot"]],
                         ids=["lambda", "catalog", "preorder"])
@pytest.mark.parametrize("where, reason", [("missing/out.txt", "No such file or directory"),
                                           (".", "Is a directory")],
                         ids=["missing-directory", "directory"])
def test_an_output_file_that_cannot_be_written_is_an_error(argv, where, reason, capsys,
                                                           tmp_path):
    doc = export(tmp_path, "oriental", 2)
    path = str(tmp_path / where)
    code, out, err = run([arg.format(doc=doc) for arg in argv] + [path], capsys)
    assert (code, out) == (1, "")
    assert err == "error: cannot write %s: %s\n" % (path, reason)


READERS = [["check"], ["enumerate"], ["lambda"], ["preorder"], ["roundtrip"],
           ["oracle", "--dim", "0"]]


@pytest.mark.parametrize("entry", ["1", "null", "[]", '"x"'])
@pytest.mark.parametrize("command", READERS, ids=lambda argv: argv[0])
def test_non_object_generator_entries_are_document_errors(command, entry, capsys,
                                                          tmp_path):
    doc = tmp_path / "entry.json"
    doc.write_text('{"kind": "adc", "generators": [%s]}' % entry)
    code, out, err = run(command + [str(doc)], capsys)
    assert code == 2
    assert out == ""
    assert err == "document error: generator record 0 must be an object\n"


@pytest.mark.parametrize("dim", [10**6, 2**70])
@pytest.mark.parametrize("command", READERS, ids=lambda argv: argv[0])
def test_presentation_dimensions_out_of_reach_are_validation_errors(command, dim,
                                                                    capsys, tmp_path):
    path = export(tmp_path, "oriental", 2, form="polygraph")
    doc = json.loads(path.read_text())
    for record in doc["generators"]:
        if record["name"] == "02":
            record["dim"] = dim
    path.write_text(json.dumps(doc))
    code, out, err = run(command + [str(path)], capsys)
    assert code == 3
    assert out == ""
    assert err == ("validation error: dimension %d of '02' is out of reach: 7 "
                   "generators and their identity expressions reach dimension 6 "
                   "at most\n" % dim)


def test_a_lone_high_degree_generator_is_a_valid_complex(capsys, tmp_path):
    doc = tmp_path / "high.json"
    doc.write_text('{"kind": "adc", "generators": '
                   '[{"name": "a", "dim": 40, "boundary": {}}]}')
    code, out, err = run(["check", str(doc)], capsys)
    # a verdict, not a validation error: the degree is not bounded by the
    # number of generators in a complex
    assert (code, err) == (4, "")
    assert "unital: no" in out


@pytest.mark.parametrize("command", READERS, ids=lambda argv: argv[0])
def test_an_augmentation_outside_the_checked_range_overflows(command, capsys, tmp_path):
    # the same number as a boundary coefficient is OVERFLOW too
    for key, value in (("augmentation", "%d" % 2**70),
                       ("boundary", '{"y": %d}' % 2**70)):
        doc = tmp_path / "big.json"
        doc.write_text('{"kind": "adc", "generators": [{"name": "y", "dim": 0, '
                       '"augmentation": 1}, {"name": "x", "dim": %d, "%s": %s}]}'
                       % (key == "boundary", key, value))
        code, out, err = run(command + [str(doc)], capsys)
        assert (code, out) == (5, "")
        assert err == ("resource error [OVERFLOW]: coefficient %d exceeds the "
                       "checked 64-bit range\n" % 2**70)


def _adc_document(tmp_path, augmentations, boundaries):
    records = [{"name": name, "dim": 0, "augmentation": value}
               for name, value in augmentations.items()]
    records += [{"name": name, "dim": dim, "boundary": boundary}
                for name, (dim, boundary) in boundaries.items()]
    doc = tmp_path / "complex.json"
    doc.write_text(json.dumps({"kind": "adc", "generators": records}))
    return doc


@pytest.mark.parametrize("command", READERS + [["check", "--json"]],
                         ids=lambda argv: "-".join(argv))
def test_documents_that_are_not_chain_complexes_are_refused(command, capsys, tmp_path):
    # dd t = b - c
    doc = _adc_document(tmp_path, {"a": 1, "b": 1, "c": 1}, {
        "e": (1, {"a": -1, "b": 1}), "f": (1, {"a": -1, "c": 1}),
        "t": (2, {"e": 1, "f": -1})})
    code, out, err = run(command + [str(doc)], capsys)
    assert (code, out) == (3, "")
    assert err == ("validation error: not a chain complex: dd = 0 fails at 't' "
                   "(IntVector(+1*b -1*c))\n")

    # eps d e = 1 - 2; the law dd is checked first, on every generator
    doc = _adc_document(tmp_path, {"a": 2, "b": 1}, {
        "e": (1, {"a": -1, "b": 1}), "s": (2, {"e": 1}), "u": (2, {})})
    code, out, err = run(command + [str(doc)], capsys)
    assert (code, out) == (3, "")
    assert err == ("validation error: not a chain complex: dd = 0 fails at 's' "
                   "(IntVector(-1*a +1*b))\n")
    doc = _adc_document(tmp_path, {"a": 2, "b": 1}, {
        "e": (1, {"a": -1, "b": 1}), "u": (2, {})})
    code, out, err = run(command + [str(doc)], capsys)
    assert (code, out) == (3, "")
    assert err == "validation error: not a chain complex: eps-d = 0 fails at 'e' (-1)\n"


@pytest.mark.parametrize("command", READERS, ids=lambda argv: argv[0])
def test_an_augmentation_sum_outside_the_checked_range_overflows(command, capsys,
                                                                 tmp_path):
    # 4 * 2**62 = 2**64 is a product no computation may keep
    doc = _adc_document(tmp_path, {"a": 2**62, "b": 1}, {"e": (1, {"a": 4, "b": -3})})
    code, out, err = run(command + [str(doc)], capsys)
    assert (code, out) == (5, "")
    assert err == ("resource error [OVERFLOW]: coefficient %d exceeds the "
                   "checked 64-bit range\n" % 2**64)


@pytest.mark.parametrize("dim, shown", [
    (2**14 + 1, "16385"),
    (10**18, "1000000000000000000"),
    (2**70, "1180591620717411303424"),
])
@pytest.mark.parametrize("command", READERS, ids=lambda argv: argv[0])
def test_adc_degrees_past_the_cap_are_refused_before_layout(command, dim, shown,
                                                           capsys, tmp_path):
    doc = tmp_path / "huge.json"
    doc.write_text('{"kind": "adc", "generators": [{"name": "x", "dim": 0, '
                   '"augmentation": 1}, {"name": "a", "dim": %d, "boundary": {}}]}'
                   % dim)
    tracemalloc.start()
    try:
        code, out, err = run(command + [str(doc)], capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 5
    assert out == ""
    assert err == ("resource error [DEGREE_CAP]: generator 'a' has degree %s; "
                   "the limit is 16384\n" % shown)
    assert peak < 10**6


@pytest.mark.parametrize("opening, closing", [
    ('{"comp": [0, ', ', {"gen": "01"}]}'),
    ('{"id": ', '}'),
], ids=("comp", "id"))
def test_deeply_nested_documents_are_document_errors(opening, closing, capsys,
                                                     tmp_path):
    depth = 100000
    expr = opening * depth + '{"gen": "01"}' + closing * depth
    doc = tmp_path / "deep.json"
    doc.write_text(
        '{"kind": "polygraph", "generators": [{"name": "0", "dim": 0}, '
        '{"name": "01", "dim": 1, "src": {"gen": "0"}, "tgt": {"gen": "0"}}, '
        '{"name": "a", "dim": 2, "src": %s, "tgt": %s}]}' % (expr, expr))
    code, out, err = run(["check", str(doc)], capsys)
    assert code == 2
    assert out == ""
    assert "document error: JSON nested too deeply" in err


def test_nesting_near_the_recursion_limit(capsys, tmp_path):
    # Walking down from above the JSON decoder's limit, every depth is a
    # document error until one classifies; the depths the decoder accepts
    # but the recursive expression walks do not are among them.
    messages = set()
    for depth in range(1200, 0, -1):
        expr = '{"id": ' * depth + '{"gen": "0"}' + '}' * depth
        doc = tmp_path / "deep.json"
        doc.write_text(
            '{"kind": "polygraph", "generators": [{"name": "0", "dim": 0}, '
            '{"name": "x", "dim": %d, "src": %s, "tgt": %s}]}'
            % (depth + 1, expr, expr))
        code, _, err = run(["check", str(doc)], capsys)
        if code != 2:
            break
        assert "nested too deeply" in err
        messages.add(err)
    assert code == 4  # an endo cell is not strong Steiner
    assert "document error: expressions nested too deeply\n" in messages


def test_catalog_errors(capsys):
    code, _, err = run(["catalog", "gizmo"], capsys)
    assert code == 1
    assert "unknown catalog entry 'gizmo'" in err
    assert "oriental" in err  # the known names are listed

    code, _, err = run(["catalog", "oriental"], capsys)
    assert code == 1
    assert "takes 1 parameter(s), got 0" in err

    code, _, err = run(["catalog", "oriental", "4", "--form", "polygraph"], capsys)
    assert code == 1
    assert "has no polygraph form" in err

    code, _, err = run(["catalog", "oriental", "x"], capsys)
    assert code == 1
    assert "usage error" in err


@pytest.mark.parametrize("argv, count", [
    (["disk", "8192"], "16385"),
    (["sphere", "8192"], "16386"),
    (["ordinal", "8192"], "16385"),
    (["theta2", "1", "8191"], "16385"),
    (["oriental", "14"], "32767"),
    (["ordinal", "1000000000"], "2000000001"),
    (["disk", "100000000"], "200000001"),
    (["theta2", "1", "100000000"], "200000003"),
    (["oriental", "100000"], "more than 10**18"),
])
def test_catalog_refuses_entries_past_the_size_cap(capsys, argv, count):
    tracemalloc.start()
    try:
        code, out, err = run(["catalog"] + argv, capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 5
    assert out == ""
    assert err == ("resource error [CATALOG_CAP]: catalog entry %s has %s "
                   "generators; the limit is 16384\n" % (" ".join(argv), count))
    assert peak < 10**6  # refused before anything is built


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# prints the submodules of polyadc that have run: a module put in
# sys.modules by the lazy loader stays a subclass until its first lookup
LOADED = ("import json, sys, types; print(json.dumps(sorted(k for k, m in "
          "sys.modules.items() if k.startswith('polyadc.') and type(m) is types.ModuleType)))")


def run_child(code):
    """Run ``code`` in a fresh interpreter with ``src`` on the path; -S
    keeps site from importing modules on its own."""
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def loaded_after(code):
    return json.loads(run_child(code + "\n" + LOADED))


def test_the_command_line_starts_without_the_dataclass_machinery():
    probe = ("import sys, polyadc.cli; "
             "print(sorted(m for m in ('dataclasses', 'inspect', 'typing') "
             "if m in sys.modules))")
    assert run_child(probe) == "[]\n"


def test_importing_the_package_runs_no_submodule():
    assert loaded_after("import polyadc") == []


def subcommand_modules(argv, exit_code=0):
    code = ("import contextlib, io, polyadc.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert polyadc.cli.main(%r) == %d" % (argv, exit_code))
    return set(loaded_after(code))


@pytest.mark.parametrize("form", ["adc", "polygraph"])
@pytest.mark.parametrize("argv", [["check"], ["check", "--json"], ["lambda"],
                                  ["preorder"], ["enumerate"],
                                  ["oracle", "--dim", "1"]], ids=" ".join)
def test_a_subcommand_runs_no_catalog_roundtrip_or_matrix_module(tmp_path, argv, form):
    doc = str(export(tmp_path, "oriental", 2, form=form))
    modules = subcommand_modules(argv[:1] + [doc] + argv[1:])
    assert "polyadc.cli" in modules
    assert not modules & {"polyadc.catalog", "polyadc.roundtrip", "polyadc.smith"}


def test_the_catalog_subcommand_runs_no_roundtrip_or_matrix_module():
    modules = subcommand_modules(["catalog", "oriental", "2"])
    assert "polyadc.catalog" in modules
    assert not modules & {"polyadc.roundtrip", "polyadc.smith"}


def test_the_roundtrip_subcommand_runs_no_matrix_module(tmp_path):
    # the certificate needs no matrix, and a complex that is not strong
    # Steiner is refused before anything is enumerated
    doc = str(export(tmp_path, "oriental", 2))
    modules = subcommand_modules(["roundtrip", doc])
    assert "polyadc.roundtrip" in modules and "polyadc.smith" not in modules
    loop = str(export(tmp_path, "loop"))
    assert "polyadc.smith" not in subcommand_modules(["roundtrip", loop], 4)


def test_an_error_exit_runs_no_catalog_module(tmp_path):
    # exit codes 3 and 5 are chosen by the exception's code, not its class
    loop = str(export(tmp_path, "loop", form="polygraph"))
    assert "polyadc.catalog" not in subcommand_modules(["enumerate", loop], 5)
    invalid = tmp_path / "dup.json"
    invalid.write_text(json.dumps({"kind": "adc", "generators": [
        {"name": "v", "dim": 0, "augmentation": 1},
        {"name": "v", "dim": 0, "augmentation": 1}]}))
    assert not subcommand_modules(["check", str(invalid)], 3) & {
        "polyadc.catalog", "polyadc.nu", "polyadc.polygraph"}


def test_refusing_what_is_not_a_complex_runs_no_polygraph_module():
    # the enumeration, the Steiner test and the roundtrip refuse anything
    # but an Adc by its class, without loading the presentation module
    code = ("import polyadc.roundtrip as r\n"
            "for check in (r.nu.enumerate_nu, r.verify_equivalence):\n"
            "    try:\n"
            "        check(object())\n"
            "    except TypeError as exc:\n"
            "        assert 'lambda_presentation' in str(exc)\n"
            "    else:\n"
            "        raise AssertionError")
    assert "polyadc.polygraph" not in loaded_after(code)


def test_the_resource_codes_are_the_cap_exceptions_codes():
    from polyadc import catalog, nu, serialize, zlin
    assert cli.RESOURCE_CODES == {
        cls.code for cls in (nu.EnumerationCapExceeded, catalog.CatalogCapExceeded,
                             serialize.DegreeCapExceeded, zlin.TorsionError,
                             zlin.CoefficientOverflow)}


def test_checking_a_complex_runs_no_enumeration_module(tmp_path):
    doc = str(export(tmp_path, "oriental", 2))
    assert subcommand_modules(["check", doc]) == {
        "polyadc.cli", "polyadc.zlin", "polyadc.adc", "polyadc.serialize"}


# the modules a subcommand runs beyond cli, zlin, adc and serialize: a
# complex runs no polygraph, and check, lambda and preorder on a
# presentation run no nu
@pytest.mark.parametrize("form, argv, more", [
    ("adc", ["check", "--json"], ()),
    ("adc", ["lambda"], ()),
    ("adc", ["preorder"], ()),
    ("adc", ["enumerate"], ("nu", "table")),
    ("adc", ["oracle", "--dim", "1"], ("nu", "table")),
    ("adc", ["roundtrip"], ("nu", "roundtrip", "table")),
    ("polygraph", ["check"], ("polygraph", "table")),
    ("polygraph", ["check", "--json"], ("polygraph", "table")),
    ("polygraph", ["lambda"], ("polygraph", "table")),
    ("polygraph", ["preorder"], ("polygraph", "table")),
], ids=lambda v: v if isinstance(v, str) else " ".join(v) or "no more")
def test_a_subcommand_runs_only_the_modules_its_input_needs(tmp_path, form, argv, more):
    doc = str(export(tmp_path, "oriental", 2, form=form))
    assert subcommand_modules(argv[:1] + [doc] + argv[1:]) == {
        "polyadc." + name for name in ("cli", "zlin", "adc", "serialize") + more}


def test_an_inconsistent_classification_exits_3(tmp_path, capsys, monkeypatch):
    from polyadc import polygraph

    def inconsistent(pres):
        raise polygraph.InconsistentClassification("codim-1 cycle in a strong Steiner")

    monkeypatch.setattr(polygraph, "classify", inconsistent)
    doc = str(export(tmp_path, "oriental", 2, form="polygraph"))
    assert run(["check", doc], capsys) == (
        3, "", "internal inconsistency: codim-1 cycle in a strong Steiner\n")


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["check", "--json", "DOC"], ["catalog", "oriental", "9"]],
                         ids=" ".join)
def test_a_closed_stdout_is_an_output_that_cannot_be_written(tmp_path, argv, unbuffered):
    # catalog writes through _write_out, check with print
    doc = str(export(tmp_path, "oriental", 2))
    argv = [doc if arg == "DOC" else arg for arg in argv]
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONUNBUFFERED=unbuffered)
    read, write = os.pipe()
    os.close(read)  # the reader is gone before the child writes
    try:
        proc = subprocess.run([sys.executable, "-m", "polyadc.cli"] + argv, stdout=write,
                              stderr=subprocess.PIPE, text=True, timeout=120, env=env)
    finally:
        os.close(write)
    assert proc.returncode == 1
    assert proc.stderr == "error: cannot write stdout: Broken pipe\n"


PIPE_BUFFER = 64 * 1024


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["catalog", "oriental", "9"], ["preorder", "--json", "DOC"]],
                         ids=" ".join)
def test_a_reader_that_closes_after_one_byte_cuts_no_write_short(tmp_path, capsys, argv,
                                                                  unbuffered):
    # catalog writes through _write_out, preorder through _print; each output is
    # one write larger than the pipe, so the reader closes in its middle and
    # an unbuffered stdout's raw write comes back short
    doc = str(export(tmp_path, "ordinal", 1000, form="polygraph"))
    argv = [doc if arg == "DOC" else arg for arg in argv]
    code, out, _ = run(argv, capsys)
    assert code == 0 and len(out) > PIPE_BUFFER
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONUNBUFFERED=unbuffered)
    read, write = os.pipe()
    with open(tmp_path / "stderr", "w+", encoding="utf-8") as err:
        try:
            proc = subprocess.Popen([sys.executable, "-m", "polyadc.cli"] + argv,
                                    stdout=write, stderr=err, env=env)
        finally:
            os.close(write)
        try:
            assert len(os.read(read, 1)) == 1
        finally:
            os.close(read)
        assert proc.wait(timeout=120) == 1
        err.seek(0)
        assert err.read() == "error: cannot write stdout: Broken pipe\n"


# ---------------------------------------------------------------------------
# text that cannot be decoded or encoded

LONG = "9" * 5000  # more digits than the interpreter converts to an int


def _not_utf8(tmp_path):
    doc = tmp_path / "bad.json"
    doc.write_bytes(b"\xff\xfe{}")
    return doc, "document error: cannot read %s: 'utf-8' codec can't decode byte 0xff" % doc


def _long_augmentation(tmp_path):
    doc = tmp_path / "long.json"
    doc.write_text('{"kind": "adc", "generators": [{"name": "y", "dim": 0, '
                   '"augmentation": %s}]}' % LONG)
    return doc, "document error: invalid JSON: Exceeds the limit"


def _long_dim(tmp_path):
    doc = tmp_path / "long.json"
    doc.write_text('{"kind": "polygraph", "generators": [{"name": "y", "dim": %s}]}' % LONG)
    return doc, "document error: invalid JSON: Exceeds the limit"


LIMITED = pytest.mark.skipif(
    not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < len(LONG),
    reason="this interpreter converts a 5,000-digit int")


@pytest.mark.parametrize("document", [
    pytest.param(_not_utf8, id="not-utf8"),
    pytest.param(_long_augmentation, id="long-augmentation", marks=LIMITED),
    pytest.param(_long_dim, id="long-dim", marks=LIMITED),
])
@pytest.mark.parametrize("command", READERS + [["check", "--json"]], ids=" ".join)
def test_a_document_that_cannot_be_read_is_a_document_error(command, document, capsys,
                                                            tmp_path):
    doc, start = document(tmp_path)
    code, out, err = run(command + [str(doc)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(start) and err.count("\n") == 1 and "Traceback" not in err


def test_a_forty_digit_augmentation_parses_and_overflows(capsys, tmp_path):
    doc = tmp_path / "forty.json"
    doc.write_text('{"kind": "adc", "generators": [{"name": "y", "dim": 0, '
                   '"augmentation": %s}]}' % ("9" * 40))
    assert run(["check", str(doc)], capsys) == (
        5, "", "resource error [OVERFLOW]: coefficient %s exceeds the checked 64-bit "
               "range\n" % ("9" * 40))


def _loop_with_vertex(tmp_path, name):
    """The catalog loop, a -> b -> a, with its vertex a renamed."""
    doc = tmp_path / "loop.json"
    text = export(tmp_path, "loop", form="polygraph").read_text()
    doc.write_text(text.replace('"a"', json.dumps(name)))
    return str(doc)


# an ASCII stdout cannot hold an accented name; no UTF-8 output can hold a
# lone surrogate, which a JSON escape writes
@pytest.mark.parametrize("encoding, name, argv", [
    pytest.param("ascii", "a\u00e9", ["check"], id="ascii-check"),
    pytest.param("ascii", "a\u00e9", ["preorder"], id="ascii-preorder"),
    pytest.param("utf-8", "a\ud800", ["check"], id="surrogate-check"),
    pytest.param("utf-8", "a\ud800", ["preorder"], id="surrogate-preorder"),
    pytest.param("utf-8", "a\ud800", ["preorder", "--dot", "DOT"], id="surrogate-dot"),
])
def test_a_name_the_output_encoding_cannot_hold_is_an_output_error(tmp_path, encoding,
                                                                   name, argv):
    doc = _loop_with_vertex(tmp_path, name)
    dot = str(tmp_path / "loop.dot")
    to_file = "DOT" in argv
    argv = [dot if arg == "DOT" else arg for arg in argv] + [doc]
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONIOENCODING=encoding)
    proc = subprocess.run([sys.executable, "-m", "polyadc.cli"] + argv, capture_output=True,
                          timeout=120, env=env)
    err = proc.stderr.decode("ascii")
    codec = "'%s' codec can't encode character" % encoding
    assert proc.returncode == 1
    assert err.startswith("error: cannot write %s: %s" % (dot if to_file else "stdout", codec))
    assert err.count("\n") == 1 and "Traceback" not in err
    # the file is encoded before it is made, so none is left behind
    assert not os.path.exists(dot)


# ---------------------------------------------------------------------------
# the names the package served when it imported every submodule up front

EXPORTED = {
    "adc": ("Adc", "RelationGraph", "is_strong_steiner_complex", "loop_free_report",
            "unitality_failures", "validate_adc"),
    "catalog": ("CatalogCapExceeded", "CatalogEntry", "build"),
    "nu": ("EnumeratedOmegaCat", "EnumerationCapExceeded", "NotComposable",
           "NuTable", "atom_to_table", "brute_force_nu", "composable", "compose",
           "enumerate_nu", "face", "identity", "is_valid_table"),
    "polygraph": ("CellExpr", "Comp", "Gen", "Id", "InconsistentClassification",
                  "PolyPresentation", "Verdict", "classify", "eval_table",
                  "expr_dim", "face_expr", "lambda_presentation", "linearize",
                  "preorder_report"),
    "roundtrip": ("QuotientLambda", "check_omega_basis", "lambda_of_enumerated",
                  "top_row_certificate", "verify_equivalence"),
    "serialize": ("DegreeCapExceeded", "DocumentError", "parse_document",
                  "serialize_document", "to_dot"),
    "zlin": ("AmbiguousCoordinates", "CoefficientOverflow", "IntVector",
             "SmithDecomposition", "TorsionError", "determinant", "mat_mul",
             "monoid_coordinates", "quotient_free_basis", "smith_normal_form",
             "unimodular_inverse"),
}
MOVED_TO_SMITH = ("SmithDecomposition", "QuotientBasis", "determinant", "mat_mul",
                  "monoid_coordinates", "quotient_free_basis", "smith_normal_form",
                  "unimodular_inverse")


def test_the_package_serves_every_name_it_exported_before():
    import polyadc
    for module, names in EXPORTED.items():
        for name in names:
            assert getattr(polyadc, name) is getattr(getattr(polyadc, module), name)
    for name in MOVED_TO_SMITH:
        assert getattr(polyadc.zlin, name) is getattr(polyadc.smith, name)
    everything = sorted(n for names in EXPORTED.values() for n in names)
    star = {}
    exec("from polyadc import *", star)
    # the old names and the modules, the matrix module among them
    assert sorted(set(star) - {"__builtins__"}) == \
        sorted(everything + list(EXPORTED) + ["smith"])
    assert set(star) - {"__builtins__"} <= set(dir(polyadc))
    assert {"__version__", "__path__"} <= set(dir(polyadc))


# names that only tests read, deleted from the library
DELETED = {
    "adc": ("Chain", "Decomposition", "atom_fault", "atom_table", "decompose",
            "generating_relation", "is_unital", "truncate_adc"),
    "nu": ("indecomposables",),
    "polygraph": ("AtomicityReport", "OrderabilityReport", "is_algebraically_loop_free",
                  "is_atomic", "is_steiner_orderable", "support_expr"),
    "serialize": ("expr_to_obj", "obj_to_expr"),
}
DELETED_METHODS = {
    ("adc", "Adc"): ("boundary", "chain"),
    ("adc", "RelationGraph"): ("antisymmetry", "sccs", "successors",
                               "transitive_closure"),
    ("nu", "CompositionIndex"): ("cells", "tables"),
    ("nu", "NuTable"): ("max_coeff",),
    ("nu", "EnumeratedOmegaCat"): ("cell_set",),
    ("polygraph", "PolyPresentation"): ("src", "tgt"),
    ("zlin", "IntVector"): ("l1",),
}


def test_the_names_only_tests_read_are_gone():
    import polyadc
    gone = []
    for module, names in DELETED.items():
        for name in names:
            for owner in (polyadc, getattr(polyadc, module)):
                with pytest.raises(AttributeError):
                    getattr(owner, name)
            gone.append(name)
    for (module, cls), names in DELETED_METHODS.items():
        for name in names:
            with pytest.raises(AttributeError):
                getattr(getattr(getattr(polyadc, module), cls), name)
            gone.append(name)
    assert len(gone) == 30
    assert not set(gone) & set(dir(polyadc))


def test_an_unknown_name_raises_and_loads_nothing():
    probe = ("import polyadc, polyadc.zlin\n"
             "for module, name in ((polyadc, 'nonexistent'), (polyadc.zlin, 'nonexistent'),"
             " (polyadc.zlin, '__path__')):\n"
             "    try:\n"
             "        getattr(module, name)\n"
             "    except AttributeError:\n"
             "        pass\n"
             "    else:\n"
             "        raise SystemExit('no AttributeError for %s' % name)\n"
             "from polyadc.zlin import IntVector")
    assert loaded_after(probe) == ["polyadc.zlin"]
