"""Markoff quad machinery: flip dynamics on the quad tree, simple length
spectra, identity sums over two-sided classes, exact integer
classification, coordinate charts and a CLI."""

__version__ = "0.1.0"

from .errors import (
    BqViolationError,
    BranchCutError,
    BudgetExceededError,
    DegenerateClassError,
    DomainError,
    InvalidQuadError,
    MarkoffError,
)
from .quadalgebra import (
    DEFAULT_TOL,
    KleinSequence,
    MarkoffQuad,
    Matrix2,
    build_representation,
    complete_quad,
    flip,
    flip_value,
    flips,
    fricke_residual,
    hurwitz_to_quad,
    klein_sequence,
    one_sided_length,
    quad_to_hurwitz,
    trace_from_length,
    two_sided_length,
    two_sided_trace,
    verify_quad,
)
from .curvecomplex import (
    Face,
    FibonacciAssignment,
    SpiralSequence,
    VertexClass,
    VertexKind,
    Walk,
    classify_vertex,
    fibonacci_level_counts,
    fibonacci_values,
    reduce_to_sink,
    spiral_sequence,
    walk,
)
from .spectra import (
    CurveKind,
    GrowthFit,
    SpectrumEntry,
    count_s,
    fit_power_law,
    growth_exponent,
    one_sided_spectrum,
    systole,
    two_sided_spectrum,
)
from .mcshane import (
    BqReport,
    McShaneReport,
    Verdict,
    check_bq,
    finite_tree_psi_sum,
    h,
    mcshane_partial,
    mcshane_verify,
    psi,
)
from .integral import (
    IntegerQuad,
    classify,
    enumerate_fundamental,
    enumerate_integral_below,
    int_flip,
    int_reduce,
)
from .coords import (
    DomainCheck,
    HorocyclicCoords,
    LambdaCoords,
    McgRelationsReport,
    horocyclic_to_quad,
    in_fundamental_domain,
    lambda_to_quad,
    mcg_apply,
    mcg_relations_check,
    quad_to_horocyclic,
    quad_to_lambda,
    sample_fuchsian_quad,
    sample_horocyclic,
)
