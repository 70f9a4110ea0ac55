"""The three workloads: seeded inputs, the library call each input makes, and
the independent check of each answer.

Every input reaches the library as JSON document text through
``parse_document`` (the ``cli`` workload hands the same text to the command
line in a file), so the ``serialize`` layer is on every path.  Inputs
depend only on the seed.  Why each workload exists is given in BENCHMARK.json;
which layers it loads or bypasses is recorded in ``layers.json``.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter

from randpres import random_presentation, shapes

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("certify", "classify", "cli")

# Cell counts per dimension recorded at the commit that introduced this
# benchmark; the roundtrip's enumeration must keep producing them.
PINNED_COUNTS = {
    ("oriental", (2,)): (3, 7, 8),
    ("oriental", (3,)): (4, 15, 23, 24),
}

# The command-line examples whose output the README shows.
README_CHECK_O2 = ("unital: yes\n"
                   "generating relation is a partial order: yes\n"
                   "strong Steiner: yes\n")
README_ENUMERATE_O2 = {
    "counts": {"0": {"cells": 3, "nontrivial": 3},
               "1": {"cells": 7, "nontrivial": 4},
               "2": {"cells": 8, "nontrivial": 1}},
    "max_dim": 2,
    "total": 18,
}
README_ROUNDTRIP_LOOP = "roundtrip: failed (not a strong Steiner complex)\n"


class CheckFailed(Exception):
    """An answer disagreed with its independent check."""


@dataclass
class Input:
    kind: str        # verify | classify | cli
    family: str
    params: tuple
    text: str        # the document as JSON text ("" for cli catalog calls)
    expect: dict
    argv: tuple = ()
    id: int = -1

    def record(self) -> dict:
        return {"id": self.id, "kind": self.kind, "family": self.family,
                "params": list(self.params), "argv": list(self.argv),
                "bytes": len(self.text.encode("utf-8")), "document": self.text}


@dataclass
class Context:
    """What an input needs to run: the library modules and, for ``cli``,
    the interpreter, its environment and a working directory."""

    lib: object
    root: str
    workdir: str
    tracer: object = None            # a Tracer while a traced pass runs


def _fail(message, *values):
    raise CheckFailed(message % values if values else message)


# ---------------------------------------------------------------------------
# independent oracles

def steiner_oracle(complex_) -> bool:
    """Unital with an acyclic generating relation, decided from the
    differentials alone, without the library's Steiner check."""
    degree = {}
    for q in range(complex_.max_degree + 1):
        for name in complex_.generators(q):
            degree[name] = q

    def boundary(vec):
        out = {}
        for name, c in vec.items():
            for below, d in complex_.diff(name).items():
                out[below] = out.get(below, 0) + c * d
        return out

    for name, q in degree.items():
        neg = pos = {name: 1}
        for _ in range(q):
            neg = {k: -c for k, c in boundary(neg).items() if c < 0}
            pos = {k: c for k, c in boundary(pos).items() if c > 0}
        for row in (neg, pos):
            if sum(c * complex_.eps_gen(k) for k, c in row.items()) != 1:
                return False

    succ = {name: set() for name in degree}
    for name, q in degree.items():
        if q:
            for below, c in complex_.diff(name).items():
                if c < 0:
                    succ[below].add(name)
                elif c > 0:
                    succ[name].add(below)
    indeg = {name: 0 for name in degree}
    for outs in succ.values():
        for b in outs:
            indeg[b] += 1
    ready = [name for name, d in indeg.items() if d == 0]
    done = 0
    while ready:
        done += 1
        for b in succ[ready.pop()]:
            indeg[b] -= 1
            if indeg[b] == 0:
                ready.append(b)
    return done == len(degree)


def theta2_counts(params) -> tuple:
    """Cells per dimension of theta2(m, k1..km), not all k zero, in closed
    form: every 1-cell is an identity or picks one of the k+1 edges in each
    column of an interval; every 2-cell does the same with an ordered pair
    of edges."""
    m, widths = params[0], params[1:]
    ones = twos = m + 1
    for i in range(m):
        p1 = p2 = 1
        for k in widths[i:]:
            p1 *= k + 1
            p2 *= (k + 1) * (k + 2) // 2
            ones += p1
            twos += p2
    return (m + 1, ones, twos)


# ---------------------------------------------------------------------------
# input generation

def _native(entry):
    return entry.presentation if entry.native == "polygraph" else entry.complex


def _certify_inputs(lib, rng):
    # Oriental 4 (about 2 s), disks 6 to 8, sphere 5 and theta2(3, 2, 0, 1)
    # (0.05-0.2 s) are left out.  The host's fast moments last a few ms: the
    # shorter a try, the likelier it falls in one, and the shorter a pass,
    # the more tries each input gets in a run.
    ladder = [("oriental", (n,)) for n in range(1, 4)]
    ladder += [("disk", (n,)) for n in range(6)]
    ladder += [("sphere", (n,)) for n in range(-1, 5)]
    # Seeded widths from a narrow range of costs, all well above the 90th
    # percentile, so that the seed moves neither the cost of a pass nor the
    # rank at which the percentile falls.
    ladder += [("theta2", (1, rng.randint(2, 4))) for _ in range(4)]
    ladder += [(name, ()) for name in ("loop", "endo2cell", "square", "forestA")]
    inputs = []
    for family, params in ladder:
        entry = lib.catalog.build(family, params)
        expect = {"steiner": steiner_oracle(entry.as_adc())}
        if family == "theta2":
            expect["counts"] = theta2_counts(params)
        elif (family, params) in PINNED_COUNTS:
            expect["counts"] = PINNED_COUNTS[(family, params)]
        inputs.append(Input("verify", family, params,
                            lib.serialize.serialize_document(_native(entry)), expect))
    # 23 + 306 = 329 inputs: the 90th percentile falls on the 297th exactly,
    # among the random inputs.  Acyclic ones are mostly strong Steiner, so
    # their roundtrip costs are dense there; the rest must be rejected.
    for shape in shapes(306, acyclic=True):
        seed = rng.getrandbits(32)
        pres = random_presentation(lib, seed, acyclic=True, shape=shape)
        lam = lib.polygraph.lambda_presentation(pres)
        inputs.append(Input("verify", "random", (seed,) + shape,
                            lib.serialize.serialize_document(lam),
                            {"steiner": steiner_oracle(lam)}))
    return inputs


def _classify_inputs(lib, rng):
    # The largest documents take up to about 50 ms each (disk 60, ordinal
    # 800 and oriental 9 take 0.2-0.7 s), for the reason given in
    # _certify_inputs.
    big = [("disk", (20,)), ("sphere", (15,)), ("ordinal", (100,)),
           ("ordinal", (200,)),
           ("theta2", (2, rng.randint(25, 30), rng.randint(25, 30))),
           ("theta2", (6,) + tuple(rng.randint(2, 3) for _ in range(6)))]
    big += [("oriental", (n,)) for n in range(5, 8)]
    small = [("oriental", (n,)) for n in range(4)]
    small += [(name, ()) for name in ("loop", "endo2cell", "square", "forestA")]
    inputs = []
    for family, params in big + small:
        entry = lib.catalog.build(family, params)
        obj = entry.presentation if entry.presentation is not None else entry.complex
        inputs.append(Input("classify", family, params,
                            lib.serialize.serialize_document(obj),
                            {"verdict": dict(entry.expected)}))
    for shape in shapes(600):
        seed = rng.getrandbits(32)
        pres = random_presentation(lib, seed, shape=shape)
        inputs.append(Input("classify", "random", (seed,) + shape,
                            lib.serialize.serialize_document(pres),
                            {"verdict": {}}))
    return inputs


def _cli_inputs(lib, rng, workdir):
    ser = lib.serialize.serialize_document
    pg = lib.polygraph
    docs = {
        "o2.json": lib.catalog.build("oriental", (2,)).complex,
        "loop.json": lib.catalog.build("loop").presentation,
        "r0.json": random_presentation(lib, rng.getrandbits(32)),
        "r1.json": random_presentation(lib, rng.getrandbits(32)),
    }
    small = rng.choice([("disk", (rng.randint(1, 3),)),
                        ("sphere", (rng.randint(0, 2),)),
                        ("theta2", (2, rng.randint(0, 2), rng.randint(0, 2)))])
    small_entry = lib.catalog.build(*small)
    docs["c.json"] = small_entry.as_adc()
    texts = {name: ser(obj) for name, obj in docs.items()}
    for name, text in texts.items():
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as handle:
            handle.write(text)

    inputs = []

    def add(argv, doc, **expect):
        family = doc or argv[1]
        inputs.append(Input("cli", family, (), texts.get(doc, ""), expect,
                            argv=tuple(argv)))

    def verdict_code(obj):
        if isinstance(obj, pg.PolyPresentation):
            return 0 if pg.classify(obj).strong_steiner else 4
        return 0 if steiner_oracle(obj) else 4

    add(["catalog", "oriental", "2"], None, code=0, stdout=texts["o2.json"])
    add(["catalog", small[0]] + [str(p) for p in small[1]], None, code=0,
        stdout=ser(_native(small_entry)))
    add(["catalog", "loop", "--form", "polygraph"], None, code=0,
        stdout=texts["loop.json"])
    for doc in ("loop.json", "r0.json"):
        add(["lambda", doc], doc, code=0,
            stdout=ser(pg.lambda_presentation(docs[doc])))
    add(["check", "o2.json"], "o2.json", code=0, stdout=README_CHECK_O2)
    for doc in ("loop.json", "r0.json", "r1.json"):
        add(["check", doc], doc, code=verdict_code(docs[doc]))
    for doc in ("o2.json", "r1.json"):
        obj = docs[doc]
        if isinstance(obj, pg.PolyPresentation):
            graph = pg.preorder_report(obj).full
            dims = {n: obj.dim_of(n) for n in obj.all_generators()}
        else:
            graph = lib.adc.loop_free_report(obj).graph
            dims = {n: obj.degree_of(n) for n in obj.all_generators()}
        add(["preorder", "--dot", "DOT", doc], doc, code=0,
            dot=lib.serialize.to_dot(graph, dims))
    add(["enumerate", "--json", "o2.json"], "o2.json", code=0,
        json=README_ENUMERATE_O2)
    enum = lib.nu.enumerate_nu(docs["c.json"])
    add(["enumerate", "--json", "c.json"], "c.json", code=0, json={
        "counts": {str(q): {"cells": len(enum.cells.get(q, ())),
                            "nontrivial": len(enum.nontrivial(q))}
                   for q in range(enum.max_dim + 1)},
        "max_dim": enum.max_dim, "total": enum.total()})
    add(["roundtrip", "loop.json"], "loop.json", code=4,
        stdout=README_ROUNDTRIP_LOOP)
    for doc in ("o2.json", "c.json"):
        add(["roundtrip", doc], doc, code=0,
            last_line="roundtrip: ok (atoms form a basis and recover the complex)")
    add(["oracle", "--dim", "1", "--cap", "2", "--json", "o2.json"], "o2.json",
        code=0, json={"dim": 1, "cap": 2, "cells": 7, "nontrivial": 4})
    top = docs["c.json"].max_degree
    cells = lib.nu.brute_force_nu(docs["c.json"], top, 2)
    add(["oracle", "--dim", str(top), "--cap", "2", "--json", "c.json"], "c.json",
        code=0, json={"dim": top, "cap": 2, "cells": len(cells),
                      "nontrivial": sum(1 for t in cells if not t.is_trivial())})
    return inputs


def generate(lib, workload, seed, workdir):
    """The seeded input list of a workload, in the order it is run."""
    rng = random.Random(seed)
    if workload == "certify":
        inputs = _certify_inputs(lib, rng)
    elif workload == "classify":
        inputs = _classify_inputs(lib, rng)
    else:
        inputs = _cli_inputs(lib, rng, workdir)
    rng.shuffle(inputs)
    for i, inp in enumerate(inputs):
        inp.id = i
    return inputs


# ---------------------------------------------------------------------------
# running one input

def _parse(ctx, inp):
    doc = ctx.lib.serialize.parse_document(inp.text)
    if isinstance(doc, ctx.lib.polygraph.PolyPresentation):
        return doc, ctx.lib.polygraph.lambda_presentation(doc)
    return doc, doc


def _run_verify(ctx, inp):
    _, complex_ = _parse(ctx, inp)
    report = ctx.lib.roundtrip.verify_equivalence(complex_)
    if inp.expect["steiner"]:
        want = {q: len(complex_.generators(q))
                for q in range(complex_.max_degree + 1)}
        if not report.ok:
            _fail("roundtrip failed on a Steiner complex: %s", report.reason)
        if report.ranks != want:
            _fail("ranks %r, want %r", report.ranks, want)
        counts = tuple(n for _, n in sorted(report.cell_counts.items()))
        if "counts" in inp.expect and counts != tuple(inp.expect["counts"]):
            _fail("cell counts %r, want %r", counts, inp.expect["counts"])
    elif report.ok or report.cell_counts or \
            report.reason != "not a strong Steiner complex":
        _fail("non-Steiner complex not rejected before enumeration: %r", report)


def _run_classify(ctx, inp):
    lib = ctx.lib
    doc = lib.serialize.parse_document(inp.text)
    want = inp.expect["verdict"]
    if isinstance(doc, lib.polygraph.PolyPresentation):
        verdict = lib.polygraph.classify(doc)
        for key, value in want.items():
            if getattr(verdict, key) != value:
                _fail("%s is %r, catalog says %r", key, getattr(verdict, key), value)
        algebraic = verdict.strongly_loop_free_algebraic
        if verdict.strongly_loop_free_categorical and not (verdict.atomic and algebraic):
            _fail("categorical loop-freeness without atomicity and algebraic")
        if verdict.atomic and algebraic and not verdict.strongly_loop_free_categorical:
            _fail("atomic and algebraic loop-freeness without categorical")
        report = lib.polygraph.preorder_report(doc)
        if not report.codim1.edges <= report.full.edges:
            _fail("codim-1 graph is not inside the full graph")
        if report.full_antisymmetric != verdict.full_antisymmetric:
            _fail("preorder report disagrees with the verdict")
        graph = report.full
        dims = {name: doc.dim_of(name) for name in doc.all_generators()}
    else:
        failures = lib.adc.unitality_failures(doc)
        report = lib.adc.loop_free_report(doc)
        steiner = not failures and report.is_partial_order
        if "strong_steiner" in want and steiner != want["strong_steiner"]:
            _fail("strong Steiner is %r, catalog says %r", steiner,
                  want["strong_steiner"])
        graph = report.graph
        dims = {name: doc.degree_of(name) for name in doc.all_generators()}
    dot = lib.serialize.to_dot(graph, dims)
    if dot.count("\n") != len(graph.nodes) + len(graph.edges) + 2:
        _fail("DOT output has the wrong number of lines")
    if lib.serialize.serialize_document(doc) != inp.text:
        _fail("parse then serialize changed the document bytes")


def _child_trace(ctx):
    return os.path.join(ctx.workdir, "child-trace.json")


def _cli_command(ctx, argv):
    """The interpreter command line for one subcommand, traced or not."""
    if ctx.tracer is None:
        return [sys.executable, "-m", "polyadc.cli"] + list(argv)
    return [sys.executable, os.path.join(HERE, "cli_child.py"),
            _child_trace(ctx)] + list(argv)


def cli_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def _run_cli(ctx, inp):
    argv = list(inp.argv)
    dot_path = None
    if "DOT" in argv:
        dot_path = os.path.join(ctx.workdir, "out-%d.dot" % inp.id)
        if os.path.exists(dot_path):
            os.remove(dot_path)
        argv[argv.index("DOT")] = dot_path
    start = perf_counter()
    proc = subprocess.run(_cli_command(ctx, argv), cwd=ctx.workdir,
                          env=cli_env(ctx.root), capture_output=True,
                          text=True, timeout=120)
    if ctx.tracer is not None:
        span = ctx.tracer.record("cli." + argv[0], start, perf_counter())
        ctx.tracer.merge(_child_trace(ctx), span)
    want = inp.expect
    if proc.returncode != want["code"]:
        _fail("exit code %d, want %d: %s", proc.returncode, want["code"],
              proc.stderr.strip()[-200:])
    if "stdout" in want and proc.stdout != want["stdout"]:
        _fail("stdout differs from the expected text")
    if "json" in want and json.loads(proc.stdout) != want["json"]:
        _fail("JSON output %s, want %s", proc.stdout.strip(), want["json"])
    if "last_line" in want and proc.stdout.splitlines()[-1:] != [want["last_line"]]:
        _fail("last line %r", proc.stdout.splitlines()[-1:])
    if "dot" in want:
        with open(dot_path, encoding="utf-8") as handle:
            if handle.read() != want["dot"]:
                _fail("DOT file differs from the expected graph")


RUNNERS = {
    "verify": _run_verify,
    "classify": _run_classify,
    "cli": _run_cli,
}


def run_input(ctx, inp):
    """Run one input; raises CheckFailed when the answer is wrong."""
    RUNNERS[inp.kind](ctx, inp)


def corrupt(inputs):
    """Make the first input's expected answer wrong (for the self-test)."""
    inp = inputs[0]
    if inp.kind == "verify":
        inp.expect["steiner"] = not inp.expect["steiner"]
    elif inp.kind == "classify":
        inp.text += " "
    else:
        inp.expect["code"] += 1
