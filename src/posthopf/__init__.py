"""Exact structure-constant computations for relaxed and weak post-Hopf
operations on Sweedler's four-dimensional Hopf algebra."""

from .exactmath import kernel_basis, rref
from .hopfcore import (
    AxiomReport,
    HopfStructure,
    group_likes,
    skew_primitives,
    sweedler_h4,
    verify_hopf_axioms,
)
from .multipoly import Poly, VarRegistry, parse_poly, try_factor_split
from .triangleop import (
    FAMILY_LABELS,
    TriangleOp,
    apply,
    check_coalgebra_hom,
    check_counit_absorption,
    check_distributivity,
    check_unitality,
    check_weighted_assoc,
    extend_generators,
    family_table,
)
from .classifier import (
    ClassificationResult,
    classify,
    match_families,
    builtin_families,
)
from .ffenum import EnumerationReport, EnumerationTask, compare_with_families, enumerate_structures

__version__ = "0.1.0"

__all__ = [
    "AxiomReport",
    "ClassificationResult",
    "EnumerationReport",
    "EnumerationTask",
    "FAMILY_LABELS",
    "HopfStructure",
    "Poly",
    "TriangleOp",
    "VarRegistry",
    "apply",
    "builtin_families",
    "check_coalgebra_hom",
    "check_counit_absorption",
    "check_distributivity",
    "check_unitality",
    "check_weighted_assoc",
    "classify",
    "compare_with_families",
    "enumerate_structures",
    "extend_generators",
    "family_table",
    "group_likes",
    "kernel_basis",
    "match_families",
    "parse_poly",
    "rref",
    "skew_primitives",
    "sweedler_h4",
    "try_factor_split",
    "verify_hopf_axioms",
]
