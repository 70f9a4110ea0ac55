"""Polygraph presentations, augmented directed complexes, and the
linearization adjunction between them."""

from .adc import (
    Adc,
    Chain,
    Decomposition,
    RelationGraph,
    atom_table,
    decompose,
    generating_relation,
    is_strong_steiner_complex,
    is_unital,
    loop_free_report,
    truncate_adc,
    unitality_failures,
    validate_adc,
)
from .catalog import CatalogCapExceeded, CatalogEntry, build
from .nu import (
    EnumeratedOmegaCat,
    EnumerationCapExceeded,
    NotComposable,
    NuTable,
    atom_to_table,
    brute_force_nu,
    compose,
    composable,
    enumerate_nu,
    face,
    identity,
    indecomposables,
    is_valid_table,
)
from .polygraph import (
    CellExpr,
    Comp,
    Gen,
    Id,
    InconsistentClassification,
    PolyPresentation,
    Verdict,
    classify,
    eval_table,
    expr_dim,
    face_expr,
    is_algebraically_loop_free,
    is_atomic,
    is_steiner_orderable,
    lambda_presentation,
    linearize,
    preorder_report,
    support_expr,
)
from .roundtrip import (
    QuotientLambda,
    check_omega_basis,
    lambda_of_enumerated,
    top_row_certificate,
    verify_equivalence,
)
from .serialize import (
    DegreeCapExceeded,
    DocumentError,
    parse_document,
    serialize_document,
    to_dot,
)
from .zlin import (
    AmbiguousCoordinates,
    CoefficientOverflow,
    IntMatrix,
    IntVector,
    SmithDecomposition,
    TorsionError,
    determinant,
    mat_mul,
    monoid_coordinates,
    quotient_free_basis,
    smith_normal_form,
    unimodular_inverse,
)

__version__ = "0.1.0"
