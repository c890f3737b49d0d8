"""Ideal mixed-integer formulations for combinatorial disjunctive constraints.

Model a choice among alternatives, each a face of the unit simplex, with a
handful of general integer variables: assign every alternative an integer
code vector, and when the codes pass two geometric gates the spanned
hyperplanes of the code differences give a formulation whose LP relaxation
has integral codes at every vertex. Everything runs in exact rational
arithmetic, and an enumeration-based checker can certify ideality outright
on instances of desk scale.
"""

from .annulus import (
    AnnulusSpec,
    annulus_cdc,
    annulus_gray_formulation,
    annulus_vertices,
    annulus_zigzag_formulation,
)
from .cdc import (
    Cdc,
    cdc,
    check_dim_condition,
    difference_directions,
    intersection_digraph,
    is_weakly_connected,
    spanned_hyperplane_normals,
    theorem1_formulation,
)
from .documents import (
    ProblemDocument,
    document_text,
    emit_structured,
    formulation_from_document,
    parse_problem,
)
from .encoding import (
    Encoding,
    EncodingKind,
    gray_matrix,
    is_hole_free,
    is_in_convex_position,
    make_encoding,
    zigzag_matrix,
)
from .errors import (
    DegenerateSecant,
    DimensionDeficit,
    EncodingNotIdealizable,
    HoleCheckTooLarge,
    IdealformError,
    InputError,
    InvalidOrder,
    NoDirections,
    NotPowerOfTwo,
    ResourceCapExceeded,
    TooFewAlternatives,
    TooLargeToEnumerate,
    TooManyDirections,
)
from .formulation import Formulation, GeneralRow, LinearEquality, RecoveryMap
from .lp_format import emit_lp_text
from .pwl import (
    PwlFunction,
    pwl_formulation,
    pwl_ground_set,
    pwl_prop3_applicable,
)
from .verify import (
    DEFAULT_ENUM_CAP,
    VerificationReport,
    check_ideal,
    check_validity_only,
    embedding_extreme_points,
    enumerate_vertices,
)

__version__ = "0.1.0"

__all__ = [
    "AnnulusSpec",
    "Cdc",
    "DEFAULT_ENUM_CAP",
    "DegenerateSecant",
    "DimensionDeficit",
    "Encoding",
    "EncodingKind",
    "EncodingNotIdealizable",
    "Formulation",
    "GeneralRow",
    "HoleCheckTooLarge",
    "IdealformError",
    "InputError",
    "InvalidOrder",
    "LinearEquality",
    "NoDirections",
    "NotPowerOfTwo",
    "ProblemDocument",
    "PwlFunction",
    "RecoveryMap",
    "ResourceCapExceeded",
    "TooFewAlternatives",
    "TooLargeToEnumerate",
    "TooManyDirections",
    "VerificationReport",
    "annulus_cdc",
    "annulus_gray_formulation",
    "annulus_vertices",
    "annulus_zigzag_formulation",
    "cdc",
    "check_dim_condition",
    "check_ideal",
    "check_validity_only",
    "difference_directions",
    "document_text",
    "embedding_extreme_points",
    "emit_lp_text",
    "emit_structured",
    "enumerate_vertices",
    "formulation_from_document",
    "gray_matrix",
    "intersection_digraph",
    "is_hole_free",
    "is_in_convex_position",
    "is_weakly_connected",
    "make_encoding",
    "parse_problem",
    "pwl_formulation",
    "pwl_ground_set",
    "pwl_prop3_applicable",
    "spanned_hyperplane_normals",
    "theorem1_formulation",
    "zigzag_matrix",
]
