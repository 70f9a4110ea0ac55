"""Polygraph presentations, augmented directed complexes, and the
linearization adjunction between them.

Importing the package runs none of its modules.  Each submodule is put in
``sys.modules`` and on the package through
:class:`importlib.util.LazyLoader`, and is compiled and run on the first
lookup of one of its attributes, so a command line call runs only the
modules its subcommand uses.  Every subcommand runs ``zlin``, ``adc`` and
``serialize``.  A presentation adds ``polygraph`` and the table algebra
``table``, so ``check``, ``lambda`` and ``preorder`` run no ``nu`` on a
presentation and no ``polygraph`` on a complex.  ``enumerate`` and
``oracle`` add ``nu`` and ``table``, ``roundtrip`` adds ``roundtrip`` as
well, and ``catalog`` adds ``catalog``, ``polygraph`` and ``table``; no
subcommand runs the matrix module ``smith``.  The names the package
serves itself (``polyadc.enumerate_nu`` and the others in ``__all__``) are
looked up on their module when asked for; ``table``'s are served through
``nu``.

The criterion of the paper, that the strong Steiner complexes are the
linearizations of the loop-free polygraphs, is one call on each side:
``classify`` on a presentation, and ``unitality_failures`` with
``loop_free_report`` on a complex.  The other names are the ones the
subcommands and the benchmark harness run, the oracles the tests compare
against (``brute_force_nu``, ``is_valid_table``, ``validate_adc``,
``atom_to_table``) and the expression walks (``face_expr``,
``support_expr``, ``linearize``, ``expr_dim``).
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

__version__ = "0.1.0"

# each submodule, with the names the package serves from it
_EXPORTS = {
    "zlin": ("AmbiguousCoordinates", "CoefficientOverflow", "IntVector",
             "TorsionError"),
    "smith": ("SmithDecomposition", "determinant", "mat_mul", "monoid_coordinates",
              "quotient_free_basis", "smith_normal_form", "unimodular_inverse"),
    "adc": ("Adc", "RelationGraph", "is_strong_steiner_complex", "loop_free_report",
            "unitality_failures", "validate_adc"),
    "nu": ("EnumeratedOmegaCat", "EnumerationCapExceeded", "NotComposable",
           "NuTable", "atom_to_table", "brute_force_nu", "compose", "composable",
           "enumerate_nu", "face", "identity", "is_valid_table"),
    "polygraph": ("CellExpr", "Comp", "Gen", "Id", "InconsistentClassification",
                  "PolyPresentation", "Verdict", "classify", "eval_table",
                  "expr_dim", "face_expr", "lambda_presentation", "linearize",
                  "preorder_report", "support_expr"),
    "serialize": ("DegreeCapExceeded", "DocumentError", "parse_document",
                  "serialize_document", "to_dot"),
    "roundtrip": ("QuotientLambda", "check_omega_basis", "lambda_of_enumerated",
                  "top_row_certificate", "verify_equivalence"),
    "catalog": ("CatalogCapExceeded", "CatalogEntry", "build"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME) + sorted(_EXPORTS)


def _lazy(name):
    """The submodule ``name``, put in ``sys.modules`` without running it."""
    spec = find_spec(__name__ + "." + name)
    spec.loader = LazyLoader(spec.loader)
    module = sys.modules[spec.name] = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ``table`` serves its names through ``nu``, and is registered for the
# modules that import it
globals().update((name, _lazy(name)) for name in (*_EXPORTS, "table"))


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    return getattr(globals()[module], name)


def __dir__():
    return sorted([name for name in globals() if name.startswith("__")] + __all__)
