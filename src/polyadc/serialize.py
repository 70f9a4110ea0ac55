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
from .adc import (Adc, RelationGraph, _check_fields, _name_levels,
                  _require_chain_complex)
from .zlin import CoefficientOverflow, IntVector


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


# each kind's keys for a record of dim 0 and of any higher dim
_ADC_KEYS = (frozenset({"name", "dim", "augmentation"}),
             frozenset({"name", "dim", "boundary"}))
_POLYGRAPH_KEYS = (frozenset({"name", "dim"}), frozenset({"name", "dim", "src", "tgt"}))


def _name_dim(record, position, keys):
    """The name and dim of the generator record at ``position``, once its
    keys are checked against ``keys`` (the dim-0 set, then the one above);
    its label is formatted only for an error.  The record is decoded JSON,
    whose strings, ints and objects are of those exact types (a bool is
    not an int here)."""
    if record.__class__ is not dict:
        raise DocumentError("generator record %d must be an object" % position)
    name = record.get("name")
    dim = record.get("dim")
    if name.__class__ is not str or not name:
        raise DocumentError("generator record %d needs a non-empty string name"
                            % position)
    if dim.__class__ is not int or dim < 0:
        raise DocumentError("generator record %d needs a non-negative integer dim"
                            % position)
    required = keys[dim > 0]
    if record.keys() != required:
        label = "generator record %d (%r)" % (position, name)
        missing = required - record.keys()
        if missing:
            raise DocumentError("%s is missing keys %s" % (label, sorted(missing)))
        raise DocumentError("%s has unknown keys %s"
                            % (label, sorted(record.keys() - required)))
    return name, dim


def parse_document(text: str):
    """Parse a JSON document into an Adc or a PolyPresentation.

    The parser is a document's one validator.  It reads the records in one
    loop, building the object's fields as it goes, checks the fields, and
    builds the object through the constructor that takes checked fields
    (``Adc._of``, ``PolyPresentation._of``).  A document with several
    faults is refused for the one at the earliest of these stages, and
    within a stage for the first in the order given:

    1. schema, in record order: text that is not JSON (a number with more
       digits than the interpreter converts to an int included), a
       document that is not an object of a kind and a list of generators,
       or a record that is not an object, lacks a non-empty string name or
       a non-negative integer dim, or lacks a key or has one too many,
       raises :class:`DocumentError`;
    2. a complex that names a degree above ``MAX_DEGREE`` raises
       :class:`DegreeCapExceeded`;
    3. values, in record order: in a complex, an augmentation or boundary
       coefficient that is not an integer raises DocumentError, and a
       coefficient outside the checked 64-bit range CoefficientOverflow; in
       a presentation, a malformed expression, or one nested too deeply to
       walk, raises DocumentError, and then a highest dimension that no
       chain of the generators and identity expressions can reach raises
       ValueError before the levels are laid out (the identity nodes are
       counted as the expressions are built);
    4. a duplicate name, the first in level order, raises ValueError;
    5. names: a differential that names anything but generators of the
       degree below, in record order, or a source or target of the wrong
       dimension (an unknown name included), in level order, raises
       ValueError;
    6. an augmentation outside the checked range, in record order, raises
       CoefficientOverflow;
    7. laws: a complex must be a chain complex, and the first failure of
       :func:`polyadc.adc.validate_adc` (dd = 0 on each generator of degree
       >= 2, then eps-d = 0 on each edge) raises ValueError naming the law
       and the generator, or CoefficientOverflow for a sum on the way that
       leaves the checked range; a presentation's boundaries must be
       composable, each source parallel to its target, checked bottom up,
       or ValueError.
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

    adc = kind == "adc"
    keys = _ADC_KEYS if adc else _POLYGRAPH_KEYS
    levels, degree, above, aug = {}, {}, {}, {}  # above: differentials or boundaries
    ids = [0]  # identity nodes in all the expressions, counted as they are built
    late = None  # the first value at fault, raised once the schema and the cap pass
    for position, record in enumerate(gens):
        name, dim = _name_dim(record, position, keys)
        levels.setdefault(dim, []).append(name)
        degree[name] = dim
        if late is not None:
            continue
        if not adc:
            if dim:
                try:
                    above[name] = (_to_expr(record["src"], ids),
                                   _to_expr(record["tgt"], ids))
                except DocumentError as exc:
                    late = exc
                except RecursionError:
                    late = DocumentError("expressions nested too deeply")
            continue
        if dim == 0:
            val = record["augmentation"]
            if val.__class__ is int:  # JSON gives exact ints, bools and floats
                aug[name] = val
            else:
                late = DocumentError("augmentation of %r must be an integer" % name)
            continue
        bd = record["boundary"]
        if bd.__class__ is not dict:
            late = DocumentError("boundary of %r must be an object" % name)
            continue
        for v in bd.values():  # the keys of a JSON object are strings
            if v.__class__ is not int:
                late = DocumentError("boundary of %r must map names to integers" % name)
                break
        else:
            try:  # drops the zeros, or names the first coefficient out of range
                above[name] = IntVector._of(bd)
            except CoefficientOverflow as exc:
                late = exc

    max_dim = max(levels) if levels else -1
    if adc and max_dim > MAX_DEGREE:
        raise DegreeCapExceeded("generator %r has degree %d; the limit is %d"
                                % (levels[max_dim][0], max_dim, MAX_DEGREE))
    if late is not None:
        raise late
    if not adc:
        # A generator's dimension is one more than its source's, which is a
        # lower generator's raised by the identities on any one path of the
        # source expression; so no generator of a valid presentation lies
        # above this bound, and checking it first keeps an absurd dimension
        # from sizing the list of levels.
        reach = len(gens) - 1 + ids[0]
        if max_dim > reach:
            raise ValueError(
                "dimension %d of %r is out of reach: %d generators and their "
                "identity expressions reach dimension %d at most"
                % (max_dim, levels[max_dim][0], len(gens), reach))
    basis = tuple([tuple(levels.get(q, ())) for q in range(max_dim + 1)])
    if len(degree) < len(gens):
        _name_levels(basis)  # raises at the first duplicate, in level order
    if not adc:
        try:
            return polygraph.PolyPresentation._of(basis, degree, above)
        except RecursionError:
            raise DocumentError("expressions nested too deeply") from None
    _check_fields(degree, above, aug)
    complex_ = Adc._of(basis, degree, above, aug)
    _require_chain_complex(complex_)
    return complex_


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
