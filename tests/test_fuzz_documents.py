"""A seeded document fuzzer for the command line.

Mutates catalog and random presentation documents and runs each mutant
through ``cli.main`` in-process for the reading subcommands.  Every run must
end with a documented exit code (0, or 2 to 5) and no exception may escape.
Three kinds of mutation are made:

- JSON-level: replace, delete or duplicate one value anywhere in the
  document.  Most of these stop at the schema check.
- Expression-level: swap a generator's source and target, substitute
  another expression of the document for one, wrap one in an identity, or
  compose two at a random level.  These reach construction, and every such
  mutant that constructs also passes the reference checks of its
  linearization.
- Number-level, on ADC documents only: replace an augmentation or a
  boundary coefficient by a value at or past the checked 64-bit window, or
  move it by one.  These keep the schema and reach the range checks and the
  chain complex laws.  They come from a stream of their own, one for every
  five mutants of the other two kinds, after those.

The tests run a fixed seeded slice, and, when Hypothesis is installed, the
same checks on mutants whose every choice Hypothesis draws and on small
documents it builds from scratch.  Run the file as a script for a larger
one, for example ``PYTHONPATH=src python tests/test_fuzz_documents.py 3000``
for 3,000 mutants and 600 number mutants per subcommand; it prints the exit
codes it saw and exits non-zero on the first failure.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import random
import sys
import tempfile
from collections import Counter

import pytest

from conftest import assert_construction_is_sound, random_presentation
from polyadc import (
    CoefficientOverflow,
    DegreeCapExceeded,
    DocumentError,
    PolyPresentation,
    build,
    cli,
    parse_document,
    serialize_document,
)

SUBCOMMANDS = [
    ["check"],
    ["check", "--json"],
    ["preorder", "--json"],
    ["lambda"],
    ["enumerate", "--max-cells", "2000"],
    ["roundtrip", "--max-cells", "2000"],
    ["oracle", "--dim", "1", "--cap", "2"],
]
DOCUMENTED_EXITS = {0, 2, 3, 4, 5}
SLICE = 300  # mutants per subcommand in the tests
SEED = 20261018

CATALOG = [("oriental", (n,), "polygraph") for n in range(3)] + [
    ("oriental", (2,), "adc"), ("disk", (2,), "polygraph"), ("disk", (3,), "adc"),
    ("sphere", (1,), "polygraph"), ("ordinal", (2,), "polygraph"),
    ("theta2", (2, 1, 1), "polygraph"), ("theta2", (1, 2), "adc"),
    ("loop", (), "polygraph"), ("endo2cell", (), "polygraph"),
    ("square", (), "polygraph"), ("forestA", (), "polygraph"),
]
RANDOM_SEEDS = range(40)

# JSON values a replacement may put anywhere: wrong types, edge numbers and
# names no document declares
ODD_VALUES = [None, True, 0, 1, -1, 2, 7, 2**63, 2**70, 1.5, "", "a", "zz",
              [], {}, [0], {"gen": "zz"}]
# integers a number mutation may put into an augmentation or a coefficient:
# the edges of the checked window, the first values past it, and a product
# 4 * 2**62 past it
WINDOW = 2**63 - 1
EDGE_NUMBERS = [WINDOW, -WINDOW, WINDOW + 1, -WINDOW - 1, 2**70, 2**62, 4, 0]


def base_documents() -> list:
    docs = []
    for name, params, form in CATALOG:
        entry = build(name, params)
        obj = entry.as_adc() if form == "adc" else entry.as_presentation()
        docs.append(json.loads(serialize_document(obj)))
    for seed in RANDOM_SEEDS:
        docs.append(json.loads(serialize_document(random_presentation(seed))))
    return docs


# ---------------------------------------------------------------------------
# JSON-level mutation

def _slots(node, out):
    """Every (container, key) holding a value below ``node``."""
    keys = range(len(node)) if isinstance(node, list) else sorted(node)
    for key in keys:
        out.append((node, key))
        if isinstance(node[key], (list, dict)):
            _slots(node[key], out)
    return out


def mutate_json(rng, doc):
    slots = _slots(doc, [])
    container, key = rng.choice(slots)
    kind = rng.choice(("replace", "delete", "duplicate"))
    if kind == "replace":
        if rng.random() < 0.5:
            container[key] = copy.deepcopy(rng.choice(ODD_VALUES))
        else:
            other, other_key = rng.choice(slots)
            container[key] = copy.deepcopy(other[other_key])
    elif kind == "delete":
        del container[key]
    elif isinstance(container, list):
        container.insert(key, copy.deepcopy(container[key]))
    else:
        other, other_key = rng.choice(slots)
        other[other_key] = copy.deepcopy(container[key])


# ---------------------------------------------------------------------------
# expression-level mutation

def _expr_slots(node, container, key, out):
    """Every (container, key) holding an expression at or below ``node``."""
    out.append((container, key))
    if "id" in node:
        _expr_slots(node["id"], node, "id", out)
    elif "comp" in node:
        body = node["comp"]
        _expr_slots(body[1], body, 1, out)
        _expr_slots(body[2], body, 2, out)
    return out


def expression_slots(doc) -> list:
    out = []
    for record in doc["generators"]:
        for side in ("src", "tgt"):
            if side in record:
                _expr_slots(record[side], record, side, out)
    return out


def mutate_expressions(rng, doc):
    slots = expression_slots(doc)
    container, key = rng.choice(slots)
    other, other_key = rng.choice(slots)
    expr, another = container[key], copy.deepcopy(other[other_key])
    kind = rng.choice(("swap", "substitute", "identity", "compose"))
    if kind == "swap":
        record = rng.choice([r for r in doc["generators"] if "src" in r])
        record["src"], record["tgt"] = record["tgt"], record["src"]
    elif kind == "substitute":
        container[key] = another
    elif kind == "identity":
        container[key] = {"id": expr}
    else:
        pair = [expr, another] if rng.random() < 0.5 else [another, expr]
        container[key] = {"comp": [rng.randrange(3)] + pair}


# ---------------------------------------------------------------------------
# number-level mutation

def mutate_numbers(rng, doc):
    records = doc["generators"]
    if rng.random() < 0.5:
        container = rng.choice([r for r in records if "augmentation" in r])
        key = "augmentation"
    else:
        container = rng.choice([r["boundary"] for r in records if r.get("boundary")])
        key = rng.choice(sorted(container))
    if rng.random() < 0.5:
        container[key] = rng.choice(EDGE_NUMBERS)
    else:
        container[key] += rng.choice((-1, 1))


# ---------------------------------------------------------------------------

def mutants(count, seed=SEED):
    """``count`` mutant texts made by JSON- or expression-level mutation,
    then ``count // 5`` made by number-level mutation from a stream of their
    own, so that the first ``count`` do not depend on the last; each comes
    with a flag saying whether it was made by expression-level mutation."""
    rng = random.Random(seed)
    bases = base_documents()
    with_exprs = [doc for doc in bases if expression_slots(doc)]
    out = []
    for _ in range(count):
        by_expression = rng.random() < 0.5
        doc = copy.deepcopy(rng.choice(with_exprs if by_expression else bases))
        for _ in range(rng.randint(1, 2)):
            if by_expression:
                mutate_expressions(rng, doc)
            else:
                mutate_json(rng, doc)
        out.append((json.dumps(doc), by_expression))
    rng = random.Random(seed + 1)
    complexes = [doc for doc in bases if doc["kind"] == "adc"]
    for _ in range(count // 5):
        doc = copy.deepcopy(rng.choice(complexes))
        for _ in range(rng.randint(1, 2)):
            mutate_numbers(rng, doc)
        out.append((json.dumps(doc), False))
    return out


def run_cli(argv):
    """Exit code, stdout and stderr of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def check_mutant(text, path, commands=SUBCOMMANDS):
    """Run one mutant through each subcommand; returns the exit codes."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    codes = []
    for command in commands:
        try:
            code, _, err = run_cli(command + [path])
        except Exception as exc:
            raise AssertionError("%s escaped %r on %s" % (
                type(exc).__name__, command, text)) from exc
        assert code in DOCUMENTED_EXITS, (command, code, err, text)
        codes.append(code)
    return codes


def check_construction(text) -> bool:
    """Whether a mutant constructs a presentation; one that does must pass
    the reference checks of its linearization.  A document refused with a
    documented error (a schema or value error, a number outside the checked
    range, a degree above the cap) constructs nothing."""
    try:
        pres = parse_document(text)
    except (DocumentError, ValueError, CoefficientOverflow, DegreeCapExceeded):
        return False
    if not isinstance(pres, PolyPresentation):
        return False
    assert_construction_is_sound(pres)
    return True


@pytest.fixture(scope="module")
def mutant_slice():
    return mutants(SLICE)


@pytest.mark.parametrize("command", SUBCOMMANDS, ids=" ".join)
def test_mutated_documents_exit_with_a_documented_code(command, mutant_slice, tmp_path):
    path = str(tmp_path / "mutant.json")
    for text, _ in mutant_slice:
        check_mutant(text, path, [command])


def _augmentations(text) -> list:
    doc = json.loads(text)
    if not isinstance(doc, dict) or doc.get("kind") != "adc" or \
            not isinstance(doc.get("generators"), list):
        return []
    return [record["augmentation"] for record in doc["generators"]
            if isinstance(record, dict) and isinstance(record.get("augmentation"), int)]


def test_the_slice_reaches_the_number_checks(mutant_slice):
    # an augmentation outside the checked window, refused as an overflow, and
    # a complex that breaks a chain law
    wide = broken = 0
    for text, _ in mutant_slice:
        values = _augmentations(text)
        try:
            parse_document(text)
        except CoefficientOverflow:
            wide += any(abs(value) > WINDOW for value in values)
        except (DocumentError, ValueError) as exc:
            broken += str(exc).startswith("not a chain complex: ")
    assert wide >= 1
    assert broken >= 1


def test_constructed_expression_mutants_pass_the_reference_checks(mutant_slice):
    constructed = sum(check_construction(text)
                      for text, by_expression in mutant_slice if by_expression)
    assert constructed >= 20  # the slice reaches past construction


# ---------------------------------------------------------------------------
# the Hypothesis variant: the same checks, with Hypothesis drawing every
# choice, so that a failing document shrinks to a small one

def test_hypothesis_mutants_exit_with_a_documented_code(tmp_path):
    """Mutants of the same base documents, by the same two mutators, with
    the base, the mutator, the number of mutations and every choice inside
    them drawn by Hypothesis."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    bases = base_documents()
    with_exprs = [doc for doc in bases if expression_slots(doc)]
    path = str(tmp_path / "mutant.json")

    @hypothesis.settings(max_examples=80, deadline=None)
    @hypothesis.given(st.booleans(), st.data())
    def prop(by_expression, data):
        doc = copy.deepcopy(data.draw(st.sampled_from(with_exprs if by_expression
                                                      else bases)))
        rng = data.draw(st.randoms(use_true_random=False))
        for _ in range(data.draw(st.integers(min_value=1, max_value=2))):
            (mutate_expressions if by_expression else mutate_json)(rng, doc)
        text = json.dumps(doc)
        check_mutant(text, path)
        check_construction(text)

    prop()


def _documents(st):
    """Small documents of either kind built from scratch: up to six records
    with distinct names, each with the keys its kind and dim need (one in
    ten loses one), and expressions of up to four generators."""
    names = st.sampled_from(["a", "b", "c", "f", "g", "h"])
    expressions = st.recursive(
        st.builds(lambda name: {"gen": name}, names),
        lambda inner: st.one_of(
            st.builds(lambda e: {"id": e}, inner),
            st.builds(lambda level, x, y: {"comp": [level, x, y]},
                      st.integers(min_value=-1, max_value=2), inner, inner)),
        max_leaves=4)
    small = st.integers(min_value=-2, max_value=2)

    @st.composite
    def record(draw, kind):
        dim = draw(st.integers(min_value=0, max_value=3))
        out = {"name": draw(names), "dim": dim}
        if kind == "adc" and dim == 0:
            out["augmentation"] = draw(small)
        elif kind == "adc":
            out["boundary"] = draw(st.dictionaries(names, small, max_size=3))
        elif dim:
            out["src"], out["tgt"] = draw(expressions), draw(expressions)
        if draw(st.integers(min_value=0, max_value=9)) == 0:
            out.pop(draw(st.sampled_from(sorted(out))))
        return out

    return st.sampled_from(["adc", "polygraph"]).flatmap(
        lambda kind: st.builds(lambda gens: {"kind": kind, "generators": gens},
                               st.lists(record(kind), max_size=6,
                                        unique_by=lambda r: r.get("name"))))


def test_hypothesis_documents_exit_with_a_documented_code(tmp_path):
    """Documents built from scratch by Hypothesis, through every subcommand;
    one that constructs a presentation passes the reference checks."""
    hypothesis = pytest.importorskip("hypothesis")
    path = str(tmp_path / "document.json")

    @hypothesis.settings(max_examples=150, deadline=None,
                         suppress_health_check=[hypothesis.HealthCheck.too_slow])
    @hypothesis.given(_documents(hypothesis.strategies))
    def prop(doc):
        text = json.dumps(doc)
        check_mutant(text, path)
        check_construction(text)

    prop()


def main(argv):
    count = int(argv[1]) if len(argv) > 1 else SLICE
    codes = Counter()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mutant.json")
        for text, by_expression in mutants(count):
            codes.update(check_mutant(text, path))
            if by_expression:
                check_construction(text)
    print("%d mutants and %d number mutants x %d subcommands; exit codes %s" % (
        count, count // 5, len(SUBCOMMANDS),
        ", ".join("%d: %d" % item for item in sorted(codes.items()))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
