"""Command line front end.

Single-invocation, single-threaded orchestration over the library calls;
every subcommand reads one document (or builds one from the catalog), runs
the requested analysis and prints a report.

Exit codes: 0 success, 1 usage error, or an output file or stdout that
cannot be written (a name the output encoding cannot hold included), 2
unreadable, malformed or too deeply nested document (one that is not
UTF-8, or has a number too long to read, included), 3 validation failure,
4 negative verdict (check/roundtrip), 5 resource cap (enumeration,
brute-force or catalog size cap, ADC degree cap, torsion, overflow).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import catalog as catalog_mod
from . import nu, polygraph, roundtrip
from .adc import Adc, loop_free_report, unitality_failures
from .serialize import DocumentError, parse_document, serialize_document, to_dot

# The ``code`` of each exception that ends a run with exit code 5: the
# enumeration, brute-force and catalog caps, the ADC degree cap, torsion
# and overflow.  Matching the code, not the class, loads no module for it,
# as matching ``INCONSISTENT`` keeps a complex's run clear of ``polygraph``.
RESOURCE_CODES = frozenset({"ENUM_CAP", "CATALOG_CAP", "DEGREE_CAP", "TORSION",
                            "OVERFLOW"})


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _count(text: str) -> int:
    """The type of the size and dimension flags: a non-negative integer."""
    try:
        value = int(text)
        if value < 0:
            raise ValueError
    except ValueError:
        raise argparse.ArgumentTypeError(
            "expected a non-negative integer, got %r" % text) from None
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="polyadc",
                     description="classify complexes and polygraph "
                                 "presentations and enumerate their cells")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("check", help="classify a document")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("enumerate", help="enumerate cells by closing the atoms")
    p.add_argument("file")
    p.add_argument("--max-dim", type=_count, default=None)
    p.add_argument("--max-cells", type=_count, default=10000)
    p.add_argument("--max-coeff", type=_count, default=8)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("lambda", help="linearize a presentation to a complex")
    p.add_argument("file")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_lambda)

    p = sub.add_parser("preorder", help="report the generating relation")
    p.add_argument("file")
    p.add_argument("--dot", default=None, help="write the graph as DOT")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_preorder)

    p = sub.add_parser("roundtrip",
                       help="check that linearizing the cells recovers the complex")
    p.add_argument("file")
    p.add_argument("--max-cells", type=_count, default=10000)
    p.add_argument("--max-coeff", type=_count, default=8)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_roundtrip)

    p = sub.add_parser("catalog", help="emit a built-in example")
    p.add_argument("name")
    p.add_argument("params", nargs="*", type=int)
    p.add_argument("--form", choices=("adc", "polygraph"), default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("oracle",
                       help="brute-force the cells of one dimension from "
                            "the cell conditions alone")
    p.add_argument("file")
    p.add_argument("--dim", type=_count, required=True)
    p.add_argument("--cap", type=_count, default=3)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_oracle)

    return parser


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DocumentError("cannot read %s: %s" % (path, exc)) from exc


def _load(path: str):
    return parse_document(_read(path))


def _as_complex(doc) -> Adc:
    if isinstance(doc, Adc):
        return doc
    return polygraph.lambda_presentation(doc)


def _stdout(text: str) -> None:
    """Write to stdout; every stdout write of a subcommand goes here.

    The encoded text goes to the byte stream under ``sys.stdout`` until all
    of it is written: an unbuffered stdout (``PYTHONUNBUFFERED``) is a raw
    file whose write may be cut short when the reader closes the pipe, and
    the loop's next write then raises the ``BrokenPipeError`` that
    :func:`main` reports.  A text stream with no byte stream under it, as
    ``contextlib.redirect_stdout`` may give, takes the text as it is.
    """
    out = sys.stdout
    raw = getattr(out, "buffer", None)
    if raw is None:
        out.write(text)
        return
    data = memoryview(text.encode(out.encoding, out.errors))
    while data:
        data = data[raw.write(data):]


def _print(line: str) -> None:
    _stdout(line + "\n")


def _write_out(text: str, path) -> int:
    """Write to the file at ``path``, or to stdout when it is None; the
    exit code: 0, or 1 with an error on stderr when the file cannot be
    written.  The text is encoded before the file is opened, so a name
    UTF-8 cannot hold (a lone surrogate) leaves no file behind."""
    if path is None:
        _stdout(text)
        return 0
    try:
        data = text.encode("utf-8")
        with open(path, "wb") as handle:
            handle.write(data)
    except (OSError, UnicodeEncodeError) as exc:
        print("error: cannot write %s: %s" % (path, getattr(exc, "strerror", exc)),
              file=sys.stderr)
        return 1
    return 0


def _fmt_set(names) -> str:
    return "{%s}" % ", ".join(sorted(names))


def _fmt_cycle(cycle) -> str:
    if len(cycle) == 1:
        return "%s -> %s" % (cycle[0], cycle[0])
    return " -> ".join(cycle) + " -> " + cycle[0]


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


# ---------------------------------------------------------------------------
# subcommands

def _cmd_check(args) -> int:
    doc = _load(args.file)
    if not isinstance(doc, Adc):
        verdict = polygraph.classify(doc)
        if args.json:
            _print(json.dumps(verdict.as_dict(), indent=2, sort_keys=True))
        else:
            _print("atomic: %s" % _yesno(verdict.atomic))
            if not verdict.atomic:
                name, level, common = verdict.atomic_witness
                _print("  atomicity violated at (%s, %d): %s"
                       % (name, level, _fmt_set(common)))
            _print("codim-1 preorder antisymmetric: %s"
                   % _yesno(verdict.codim1_antisymmetric))
            if verdict.codim1_cycle:
                _print("  cycle: %s" % _fmt_cycle(verdict.codim1_cycle))
            _print("full preorder antisymmetric: %s"
                   % _yesno(verdict.full_antisymmetric))
            if verdict.full_cycle:
                _print("  cycle: %s" % _fmt_cycle(verdict.full_cycle))
            _print("algebraically loop-free: %s"
                   % _yesno(verdict.strongly_loop_free_algebraic))
            _print("orderable: %s" % _yesno(verdict.steiner_orderable))
            if verdict.steiner_cycle:
                _print("  constraint cycle: %s" % _fmt_cycle(verdict.steiner_cycle))
            _print("strong Steiner: %s" % _yesno(verdict.strong_steiner))
        return 0 if verdict.strong_steiner else 4

    failures = unitality_failures(doc)
    report = loop_free_report(doc)
    ok = not failures and report.is_partial_order
    if args.json:
        _print(json.dumps({
            "unital": not failures,
            "nonunital_generators": sorted(name for name, _, _ in failures),
            "partial_order": report.is_partial_order,
            "cycle": None if report.cycle is None else list(report.cycle),
            "strong_steiner": ok,
        }, indent=2, sort_keys=True))
    else:
        _print("unital: %s" % _yesno(not failures))
        for name, en, ep in failures:
            _print("  atom of %s has augmentations (%d, %d)" % (name, en, ep))
        _print("generating relation is a partial order: %s"
               % _yesno(report.is_partial_order))
        if report.cycle:
            _print("  cycle: %s" % _fmt_cycle(report.cycle))
        _print("strong Steiner: %s" % _yesno(ok))
    return 0 if ok else 4


def _cmd_enumerate(args) -> int:
    complex_ = _as_complex(_load(args.file))
    enum = nu.enumerate_nu(complex_, max_dim=args.max_dim,
                           max_cells=args.max_cells, max_coeff=args.max_coeff)
    counts = {}
    for q in range(enum.max_dim + 1):
        cells = enum.cells.get(q, ())
        counts[q] = {"cells": len(cells), "nontrivial": len(enum.nontrivial(q))}
    if args.json:
        _print(json.dumps({
            "max_dim": enum.max_dim,
            "counts": {str(q): c for q, c in counts.items()},
            "total": enum.total(),
        }, indent=2, sort_keys=True))
    else:
        for q, c in counts.items():
            _print("dim %d: %d cells, %d nontrivial"
                   % (q, c["cells"], c["nontrivial"]))
        _print("total: %d" % enum.total())
    return 0


def _cmd_lambda(args) -> int:
    doc = _load(args.file)
    return _write_out(serialize_document(_as_complex(doc)), args.out)


def _cmd_preorder(args) -> int:
    doc = _load(args.file)
    if not isinstance(doc, Adc):
        report = polygraph.preorder_report(doc)
        graph = report.full
        anti, cycle = report.full_antisymmetric, report.full_cycle
        dims = {name: doc.dim_of(name) for name in doc.all_generators()}
    else:
        lfr = loop_free_report(doc)
        graph = lfr.graph
        anti, cycle = lfr.is_partial_order, lfr.cycle
        dims = {name: doc.degree_of(name) for name in doc.all_generators()}
    if args.dot is not None and _write_out(to_dot(graph, dims), args.dot):
        return 1
    if args.json:
        _print(json.dumps({
            "nodes": list(graph.nodes),
            "edges": sorted([u, v] for u, v in graph.edges),
            "antisymmetric": anti,
            "cycle": None if cycle is None else list(cycle),
        }, indent=2, sort_keys=True))
    else:
        _print("nodes: %d, edges: %d" % (len(graph.nodes), len(graph.edges)))
        _print("antisymmetric: %s" % _yesno(anti))
        if cycle:
            _print("  cycle: %s" % _fmt_cycle(cycle))
    return 0


def _cmd_roundtrip(args) -> int:
    complex_ = _as_complex(_load(args.file))
    report = roundtrip.verify_equivalence(complex_, max_cells=args.max_cells,
                                          max_coeff=args.max_coeff)
    if args.json:
        _print(json.dumps({
            "ok": report.ok,
            "reason": report.reason,
            "cell_counts": {str(q): n for q, n in report.cell_counts.items()},
            "ranks": {str(q): n for q, n in report.ranks.items()},
        }, indent=2, sort_keys=True))
    else:
        for q in sorted(report.cell_counts):
            _print("dim %d: %d cells, rank %d"
                   % (q, report.cell_counts[q], report.ranks.get(q, 0)))
        if report.ok:
            _print("roundtrip: ok (atoms form a basis and recover the complex)")
        else:
            _print("roundtrip: failed (%s)" % report.reason)
    return 0 if report.ok else 4


def _cmd_catalog(args) -> int:
    try:
        entry = catalog_mod.build(args.name, tuple(args.params))
        form = args.form or entry.native
        if form == "adc":
            text = serialize_document(entry.as_adc())
        else:
            text = serialize_document(entry.as_presentation())
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    return _write_out(text, args.out)


def _cmd_oracle(args) -> int:
    complex_ = _as_complex(_load(args.file))
    tables = nu.brute_force_nu(complex_, args.dim, args.cap)
    nontrivial = [t for t in tables if not t.is_trivial()]
    if args.json:
        _print(json.dumps({
            "dim": args.dim,
            "cap": args.cap,
            "cells": len(tables),
            "nontrivial": len(nontrivial),
        }, indent=2, sort_keys=True))
    else:
        _print("dim %d with coefficients up to %d: %d cells, %d nontrivial"
               % (args.dim, args.cap, len(tables), len(nontrivial)))
    return 0


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 1
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError as exc:
        # the reader closed stdout: what is left unwritten goes to the null
        # device, so the interpreter's last flush does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: cannot write stdout: %s" % exc.strerror, file=sys.stderr)
        return 1
    except UnicodeEncodeError as exc:
        # a name stdout's encoding cannot hold; the lines before it are written
        print("error: cannot write stdout: %s" % exc, file=sys.stderr)
        return 1
    except DocumentError as exc:
        print("document error: %s" % exc, file=sys.stderr)
        return 2
    except ValueError as exc:
        print("validation error: %s" % exc, file=sys.stderr)
        return 3
    except Exception as exc:
        code = getattr(exc, "code", None)
        if code == "INCONSISTENT":
            print("internal inconsistency: %s" % exc, file=sys.stderr)
            return 3
        if code not in RESOURCE_CODES:
            raise
        print("resource error [%s]: %s" % (exc.code, exc), file=sys.stderr)
        return 5


if __name__ == "__main__":
    raise SystemExit(main())
