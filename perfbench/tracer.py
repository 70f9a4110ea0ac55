"""Spans and counters recorded from outside the library.

:func:`install` replaces public functions of the ``polyadc`` modules by
wrappers, at every module attribute that holds them, so callers that
imported a function by name are traced as well as callers that look it up
on its module.  Functions called once per input or per matrix get a span
(name, start, end, parent, input id); functions called once per pair of
cells only bump counters.  Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from time import perf_counter

# (module, function, span name); observers add work counts per call
SPANNED = (
    ("zlin", "quotient_free_basis", "zlin.quotient"),
    ("zlin", "determinant", "zlin.det"),
    ("zlin", "monoid_coordinates", "zlin.monoid"),
    ("nu", "enumerate_nu", "nu.enumerate"),
    ("nu", "brute_force_nu", "nu.brute_force"),
    ("roundtrip", "lambda_of_enumerated", "roundtrip.lambda"),
    ("roundtrip", "check_omega_basis", "roundtrip.basis_check"),
    ("roundtrip", "verify_equivalence", "roundtrip.verify"),
    ("polygraph", "classify", "polygraph.classify"),
    ("polygraph", "lambda_presentation", "polygraph.lambda"),
    ("adc", "loop_free_report", "adc.loop_free"),
    ("adc", "unitality_failures", "adc.unitality"),
    ("serialize", "parse_document", "serialize.parse"),
    ("serialize", "serialize_document", "serialize.write"),
    ("serialize", "to_dot", "serialize.dot"),
    ("catalog", "build", "catalog.build"),
)

# (module, function, counter name, counter for truthy results or None,
#  whether to count per enclosing span as well)
COUNTED = (
    ("nu", "composable", "nu.composable", "nu.composable_hits", False),
    ("nu", "compose", "nu.compose", None, True),
    ("nu", "identity", "nu.identity", None, True),
    ("polygraph", "face_expr", "polygraph.face_expr", None, False),
)


def _observe_quotient(tracer, args, kwargs, result):
    ambient = args[0] if args else kwargs["ambient"]
    relations = args[1] if len(args) > 1 else kwargs["relations"]
    relations = list(relations)
    tracer.add("zlin.quotient_ambient", len(ambient))
    tracer.add("zlin.quotient_relations", len(relations))
    tracer.maximum("zlin.quotient_max_relations", len(relations))
    if tracer.parent_name() == "roundtrip.lambda":
        tracer.add("roundtrip.relations", len(relations))
        tracer.add("roundtrip.relations_distinct", len(set(relations)))


def _observe_enumerate(tracer, args, kwargs, result):
    tracer.add("nu.cells", result.total())
    tracer.add("nu.atoms", len(result.atom_names))


def _observe_brute(tracer, args, kwargs, result):
    tracer.add("nu.brute_force_cells", len(result))


def _observe_loop_free(tracer, args, kwargs, result):
    tracer.add("adc.relation_edges", len(result.graph.edges))


def _observe_parse(tracer, args, kwargs, result):
    text = args[0] if args else kwargs["text"]
    tracer.add("serialize.parse_bytes", len(text.encode("utf-8")))


def _observe_write(tracer, args, kwargs, result):
    tracer.add("serialize.write_bytes", len(result.encode("utf-8")))


OBSERVERS = {
    "zlin.quotient": _observe_quotient,
    "nu.enumerate": _observe_enumerate,
    "nu.brute_force": _observe_brute,
    "adc.loop_free": _observe_loop_free,
    "serialize.parse": _observe_parse,
    "serialize.write": _observe_write,
}


class Tracer:
    """In-memory spans and counters of one process."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index, input id]
        self.counters = Counter()
        self.maxima = {}
        self.stack = []        # indices of the open spans
        self.input_id = None
        self._undo = []

    def add(self, name, amount=1):
        self.counters[name] += amount

    def maximum(self, name, value):
        self.maxima[name] = max(self.maxima.get(name, 0), value)

    def record(self, name, start, end):
        """Add a span that has already ended; returns its index."""
        self.spans.append([name, start, end,
                           self.stack[-1] if self.stack else None, self.input_id])
        return len(self.spans) - 1

    def parent_name(self):
        """Name of the span enclosing the innermost open one."""
        if len(self.stack) < 2:
            return None
        return self.spans[self.stack[-2]][0]

    def _scope(self):
        return self.spans[self.stack[-1]][0] if self.stack else ""

    def _span_wrapper(self, name, fn):
        observe = OBSERVERS.get(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, perf_counter(), None,
                   stack[-1] if stack else None, self.input_id]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(self, args, kwargs, result)
                return result
            finally:
                rec[2] = perf_counter()
                stack.pop()
        return wrapper

    def _count_wrapper(self, name, hit_name, scoped, fn):
        counters = self.counters
        scope = self._scope

        if scoped:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counters[name] += 1
                counters[(name, scope())] += 1
                return fn(*args, **kwargs)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counters[name] += 1
                result = fn(*args, **kwargs)
                if hit_name is not None and result:
                    counters[hit_name] += 1
                return result
        return wrapper

    def install(self):
        """Wrap the traced functions in every loaded ``polyadc`` module."""
        modules = [m for k, m in sys.modules.items()
                   if k == "polyadc" or k.startswith("polyadc.")]
        plans = []
        for mod, fn, span in SPANNED:
            original = getattr(sys.modules["polyadc." + mod], fn)
            plans.append((original, self._span_wrapper(span, original)))
        for mod, fn, name, hit, scoped in COUNTED:
            original = getattr(sys.modules["polyadc." + mod], fn)
            plans.append((original, self._count_wrapper(name, hit, scoped, original)))
        for original, wrapper in plans:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._undo.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo = []

    def merge(self, path, parent):
        """Fold in the spans and counters a traced child process wrote.

        ``perf_counter`` reads the system-wide monotonic clock, so the
        child's times line up with this process's."""
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        base = len(self.spans)
        for name, start, end, up, _ in data["spans"]:
            self.spans.append([name, start, end,
                               parent if up is None else base + up,
                               self.input_id])
        for key, value in data["counters"]:
            self.counters[tuple(key) if isinstance(key, list) else key] += value
        for name, value in data["maxima"].items():
            self.maximum(name, value)

    def dump(self):
        return {"spans": self.spans,
                "counters": [[list(k) if isinstance(k, tuple) else k, v]
                             for k, v in self.counters.items()],
                "maxima": self.maxima}


# ---------------------------------------------------------------------------
# per-layer metrics

def _durations(spans):
    total = Counter()
    own = Counter()
    calls = Counter()
    children = Counter()
    for name, start, end, parent, _ in spans:
        if parent is not None:
            children[parent] += end - start
    for i, (name, start, end, parent, _) in enumerate(spans):
        total[name] += end - start
        own[name] += end - start - children[i]
        calls[name] += 1
    return total, own, calls


def layer_metrics(tracer, passes, setup_spans):
    """Per-layer values per pass over the input set.

    ``*_self_s`` excludes the time of traced calls made inside; the other
    ``*_s`` metrics are inclusive.  ``catalog.build_s`` is per set-up.
    """
    total, own, calls = _durations(tracer.spans)
    setup_total, _, _ = _durations(setup_spans)
    counts = tracer.counters

    def per(value):
        return value / passes

    composable = counts["nu.composable"]
    made = counts[("nu.compose", "nu.enumerate")] + counts[("nu.identity", "nu.enumerate")]
    return {
        "zlin.quotient_s": per(total["zlin.quotient"]),
        "zlin.quotient_calls": per(calls["zlin.quotient"]),
        "zlin.quotient_ambient": per(counts["zlin.quotient_ambient"]),
        "zlin.quotient_relations": per(counts["zlin.quotient_relations"]),
        "zlin.quotient_max_relations": tracer.maxima.get("zlin.quotient_max_relations", 0),
        "zlin.det_s": per(total["zlin.det"]),
        "zlin.monoid_s": per(total["zlin.monoid"]),
        "zlin.overflow": per(counts["zlin.overflow"]),
        "nu.enumerate_s": per(total["nu.enumerate"]),
        "nu.cells": per(counts["nu.cells"]),
        "nu.composable_calls": per(composable),
        "nu.composable_hits": per(counts["nu.composable_hits"]),
        "nu.pair_hit_ratio": counts["nu.composable_hits"] / composable if composable else 0.0,
        "nu.compose_calls": per(counts["nu.compose"]),
        "nu.new_cell_ratio": (counts["nu.cells"] - counts["nu.atoms"]) / made if made else 0.0,
        "nu.brute_force_s": per(total["nu.brute_force"]),
        "nu.brute_force_cells": per(counts["nu.brute_force_cells"]),
        "roundtrip.lambda_self_s": per(own["roundtrip.lambda"]),
        "roundtrip.relations": per(counts["roundtrip.relations"]),
        "roundtrip.relations_distinct": per(counts["roundtrip.relations_distinct"]),
        "roundtrip.basis_check_self_s": per(own["roundtrip.basis_check"]),
        "roundtrip.verify_s": per(total["roundtrip.verify"]),
        "polygraph.classify_s": per(total["polygraph.classify"]),
        "polygraph.face_expr_calls": per(counts["polygraph.face_expr"]),
        "polygraph.lambda_s": per(total["polygraph.lambda"]),
        "adc.loop_free_s": per(total["adc.loop_free"]),
        "adc.relation_edges": per(counts["adc.relation_edges"]),
        "adc.unitality_s": per(total["adc.unitality"]),
        "serialize.parse_s": per(total["serialize.parse"]),
        "serialize.parse_bytes": per(counts["serialize.parse_bytes"]),
        "serialize.write_s": per(total["serialize.write"]),
        "serialize.write_bytes": per(counts["serialize.write_bytes"]),
        "serialize.dot_s": per(total["serialize.dot"]),
        "catalog.build_s": setup_total["catalog.build"],
    }
