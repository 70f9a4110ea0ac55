"""JSON documents for complexes and presentations, plus DOT export.

A document is an object with a "kind" ("adc" or "polygraph") and a list of
generators.  Serialization is canonical, so serialize(parse(serialize(x)))
is the identity on the text.  The text is written by hand in the layout of
``json.dumps(doc, indent=2, sort_keys=True)`` plus a newline: one key or
item per line, two spaces deeper per level, ``","`` ending an item and
``": "`` after a key, ``[]``/``{}`` for an empty list/object, keys sorted
(boundary names as strings), strings ASCII with JSON escapes, and the
generators dimension by dimension in declaration order.  An expression is
``{"gen": name}``, ``{"id": expr}`` or ``{"comp": [level, left, right]}``.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _str

from . import polygraph
from .adc import Adc, RelationGraph, _require_chain_complex
from .zlin import IntVector


class DocumentError(Exception):
    """The text is not a well-formed document (schema level)."""

    code = "SCHEMA"


MAX_DEGREE = 2**14  # ADC levels are laid out as a list; catalog complexes stay below


class DegreeCapExceeded(Exception):
    """An ADC document names a degree above ``MAX_DEGREE``."""

    code = "DEGREE_CAP"


def _to_expr(obj, ids: list) -> polygraph.CellExpr:
    """The expression an object form stands for, adding to ``ids[0]`` the
    number of identity nodes it builds, so that the parser counts them in
    the one walk.  A malformed form raises :class:`DocumentError`.  The
    walk is recursive, so a form nested deeper than the interpreter's
    recursion limit raises RecursionError."""
    if not isinstance(obj, dict) or len(obj) != 1:
        raise DocumentError("expression must be a one-key object, got %r" % (obj,))
    if "gen" in obj:
        name = obj["gen"]
        if not isinstance(name, str):
            raise DocumentError("gen expression needs a string name")
        return polygraph.Gen(name)
    if "id" in obj:
        ids[0] += 1
        return polygraph.Id(_to_expr(obj["id"], ids))
    if "comp" in obj:
        body = obj["comp"]
        if (not isinstance(body, list) or len(body) != 3
                or not isinstance(body[0], int) or isinstance(body[0], bool)):
            raise DocumentError("comp expression needs [level, left, right]")
        return polygraph.Comp(body[0], _to_expr(body[1], ids), _to_expr(body[2], ids))
    raise DocumentError("unknown expression key in %r" % (obj,))


def _check_keys(record, required, label):
    missing = required - set(record)
    extra = set(record) - required
    if missing:
        raise DocumentError("%s is missing keys %s" % (label, sorted(missing)))
    if extra:
        raise DocumentError("%s has unknown keys %s" % (label, sorted(extra)))


def _name_dim(record, position):
    """The name and dim of the generator record at ``position``; its label
    is formatted only for an error."""
    if not isinstance(record, dict):
        raise DocumentError("generator record %d must be an object" % position)
    name = record.get("name")
    dim = record.get("dim")
    if not isinstance(name, str) or not name:
        raise DocumentError("generator record %d needs a non-empty string name"
                            % position)
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 0:
        raise DocumentError("generator record %d needs a non-negative integer dim"
                            % position)
    return name, dim


def parse_document(text: str):
    """Parse a JSON document into an Adc or a PolyPresentation.

    Text that is not JSON (a number with more digits than the interpreter
    converts to an int included), schema problems and nesting too deep to
    walk raise :class:`DocumentError`; semantically invalid data (bad names,
    ill-typed boundaries) surfaces as the ValueError of the corresponding
    constructor; so does an augmentation outside the checked 64-bit range,
    as CoefficientOverflow.  An ADC document must be a chain complex: the
    first failure of :func:`polyadc.adc.validate_adc` (dd = 0 on each
    generator of degree >= 2, then eps-d = 0 on each edge) raises
    ValueError naming the law and the generator, and a sum on the way that
    leaves the checked range raises CoefficientOverflow.  A presentation
    whose highest dimension no chain of its generators and identity
    expressions can reach raises ValueError before its levels are laid out;
    the identity nodes are counted while the expressions are built.
    """
    try:
        doc = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or a number too long to convert
        raise DocumentError("invalid JSON: %s" % exc) from exc
    except RecursionError:
        raise DocumentError("JSON nested too deeply") from None
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    kind = doc.get("kind")
    if kind not in ("adc", "polygraph"):
        raise DocumentError("kind must be 'adc' or 'polygraph', got %r" % (kind,))
    gens = doc.get("generators")
    if set(doc) != {"kind", "generators"} or not isinstance(gens, list):
        raise DocumentError("document needs exactly 'kind' and a 'generators' list")

    levels = {}
    records = []
    for record in gens:
        name, dim = _name_dim(record, len(records))
        if kind == "adc":
            required = {"name", "dim", "augmentation"} if dim == 0 else {"name", "dim", "boundary"}
        else:
            required = {"name", "dim"} if dim == 0 else {"name", "dim", "src", "tgt"}
        if record.keys() != required:
            _check_keys(record, required,
                        "generator record %d (%r)" % (len(records), name))
        levels.setdefault(dim, []).append(name)
        records.append(record)

    max_dim = max(levels) if levels else -1

    if kind == "adc":
        if max_dim > MAX_DEGREE:
            name = next(r["name"] for r in records if r["dim"] == max_dim)
            raise DegreeCapExceeded("generator %r has degree %d; the limit is %d"
                                    % (name, max_dim, MAX_DEGREE))
        basis = [tuple(levels.get(q, ())) for q in range(max_dim + 1)]
        diff = {}
        aug = {}
        for record in records:
            name, dim = record["name"], record["dim"]
            if dim == 0:
                val = record["augmentation"]
                if not isinstance(val, int) or isinstance(val, bool):
                    raise DocumentError("augmentation of %r must be an integer" % name)
                aug[name] = val
            else:
                bd = record["boundary"]
                if not isinstance(bd, dict):
                    raise DocumentError("boundary of %r must be an object" % name)
                for k, v in bd.items():
                    if not isinstance(k, str) or not isinstance(v, int) or isinstance(v, bool):
                        raise DocumentError("boundary of %r must map names to integers" % name)
                diff[name] = IntVector._of(bd)  # the entries are checked above
        complex_ = Adc(basis, diff, aug)
        _require_chain_complex(complex_)
        return complex_

    boundary = {}
    ids = [0]  # identity nodes in all the expressions, counted as they are built
    try:
        for record in records:
            name, dim = record["name"], record["dim"]
            if dim >= 1:
                boundary[name] = (_to_expr(record["src"], ids),
                                  _to_expr(record["tgt"], ids))
        # A generator's dimension is one more than its source's, which is a
        # lower generator's raised by the identities on any one path of the
        # source expression; so no generator of a valid presentation lies
        # above this bound, and checking it first keeps an absurd dimension
        # from sizing the list of levels.
        reach = len(records) - 1 + ids[0]
        if max_dim > reach:
            name = next(r["name"] for r in records if r["dim"] == max_dim)
            raise ValueError(
                "dimension %d of %r is out of reach: %d generators and their "
                "identity expressions reach dimension %d at most"
                % (max_dim, name, len(records), reach))
        basis = [tuple(levels.get(q, ())) for q in range(max_dim + 1)]
        return polygraph.PolyPresentation(basis, boundary)
    except RecursionError:
        raise DocumentError("expressions nested too deeply") from None


def serialize_document(obj) -> str:
    """The canonical text of an Adc or a PolyPresentation, written without
    the pure-Python encoder that ``json.dumps`` falls back to for ``indent``."""
    records = []
    if isinstance(obj, Adc):
        kind = "adc"
        for q, level in enumerate(obj.basis):
            for name in level:
                if q == 0:
                    head = '"augmentation": %d' % obj._aug[name]
                else:
                    terms = ",\n".join("        %s: %d" % (_str(k), v)
                                       for k, v in obj._diff[name].items())
                    head = '"boundary": %s' % ("{\n%s\n      }" % terms if terms else "{}")
                records.append('    {\n      %s,\n      "dim": %d,\n      "name": %s\n    }'
                               % (head, q, _str(name)))
    elif isinstance(obj, polygraph.PolyPresentation):
        kind = "polygraph"
        for q, level in enumerate(obj.generators):
            for name in level:
                tail = ""
                if q:
                    src, tgt = obj._boundary[name]
                    tail = ',\n      "src": %s,\n      "tgt": %s' % (
                        _expr_text(src, "      "), _expr_text(tgt, "      "))
                records.append('    {\n      "dim": %d,\n      "name": %s%s\n    }'
                               % (q, _str(name), tail))
    else:
        raise TypeError("cannot serialize %r" % (obj,))
    body = "[\n%s\n  ]" % ",\n".join(records) if records else "[]"
    return '{\n  "generators": %s,\n  "kind": "%s"\n}\n' % (body, kind)


def _expr_text(expr: polygraph.CellExpr, indent: str) -> str:
    """The object form of an expression, laid out as a value on a line
    indented by ``indent``."""
    inner = indent + "  "
    if isinstance(expr, polygraph.Gen):
        return '{\n%s"gen": %s\n%s}' % (inner, _str(expr.name), indent)
    if isinstance(expr, polygraph.Id):
        return '{\n%s"id": %s\n%s}' % (inner, _expr_text(expr.inner, inner), indent)
    if isinstance(expr, polygraph.Comp):
        item = inner + "  "
        return '{\n%s"comp": [\n%s%d,\n%s%s,\n%s%s\n%s]\n%s}' % (
            inner, item, expr.level, item, _expr_text(expr.left, item),
            item, _expr_text(expr.right, item), inner, indent)
    raise TypeError("not a cell expression: %r" % (expr,))


# ---------------------------------------------------------------------------
# DOT export

def _dot_escape(name: str) -> str:
    return name.replace("\\", "\\\\").replace('"', '\\"')


def to_dot(graph: RelationGraph, dims) -> str:
    """Render a relation graph as the DOT digraph ``relation``, nodes
    labeled name:dimension; each name is escaped once, in the node loop,
    and reused for the edges."""
    lines = ["digraph relation {"]
    quoted = {}
    for node in graph.nodes:
        esc = quoted[node] = _dot_escape(node)
        lines.append('  "%s" [label="%s:%d"];' % (esc, esc, dims[node]))
    for u, v in sorted(graph.edges):
        lines.append('  "%s" -> "%s";' % (quoted[u], quoted[v]))
    lines.append("}")
    return "\n".join(lines) + "\n"
