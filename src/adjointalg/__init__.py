"""Truncated free-algebra arithmetic over F_p and adjoint-group diagnostics.

The package has three layers: exact arithmetic in the degree-capped free
algebra F_p<x, y> with its adjoint (circle) group structure; the
machinery that factors 1 + a into homogeneous factors, builds graded
relation ideals degree by degree, and certifies growth via exact rational
series evaluation; and element-level diagnostics for finite nilpotent
algebras and their adjoint p-groups.
"""

from .freealg import (
    INFINITY,
    CapMismatchError,
    ConstantTermError,
    TruncatedPoly,
    circle_inv,
    circle_mul,
    circle_pow,
    homogeneous_part,
    homogeneous_parts,
    monomial,
    one,
    valuation,
    variable,
    words_of_degree,
    zero,
)
from .text import DegreeCapError, PolyParseError, format_poly, parse_poly
from .linalg import Gf2RowSpace, ModpRowSpace, ResourceLimitError, row_space
from .factorization import (
    FactorizationTrace,
    correction_step,
    factor_to_valuation,
    trace_to_json,
)
from .graded import (
    GradedIdeal,
    HilbertTable,
    generators_to_json,
    ideal_from_json,
    nilpotency_bound,
    normal_form,
    quotient_dimensions,
)
from .series import (
    DivergentTailError,
    GeneratorCensus,
    GeometricTail,
    OnePerDegreeTail,
    f_eval,
    gs_recursion_check,
    gs_report,
    tail_bound_census,
    witness_search,
)
from .construction import (
    ConstructionState,
    build_j_generators,
    census_from_state,
    combined_ideal,
    compare_with_tail_bound,
    enumerate_aplus,
    manifest,
    projective_class_count,
    projective_class_reps,
    run_construction,
    torsion_certificate,
    torsion_exponent,
)
from .finite import (
    AdjointGroup,
    FiniteNilAlgebra,
    NotNilpotentError,
    algebra_from_json,
    cyclic_width,
    direct_sum,
    exp_bound_check,
    index_exponent_check,
    quotient_algebra,
    quotient_exponent,
    strictly_upper_triangular_algebra,
    truncated_polynomial_algebra,
)

__version__ = "0.1.0"
