"""Markoff quad machinery: flip dynamics on the quad tree, simple length
spectra, identity sums over two-sided classes, exact integer
classification, coordinate charts and a CLI.

The names below are loaded on first use (PEP 562): `import markoffquads`
imports none of the library modules, and `markoffquads.walk` or
`from markoffquads import walk` imports the one module that defines it.
A fresh `mql` call thus compiles only the modules its command uses.
"""

import sys

__version__ = "0.1.0"

# home module -> the names the package exports from it
_HOMES = {
    "errors": (
        "BqViolationError", "BranchCutError", "BudgetExceededError",
        "DegenerateClassError", "DomainError", "InvalidQuadError", "MarkoffError",
    ),
    "quadalgebra": (
        "DEFAULT_TOL", "IntegerQuad", "KleinSequence", "MarkoffQuad", "Matrix2",
        "build_representation", "complete_quad", "flip", "flip_value", "flips",
        "fricke_residual", "hurwitz_to_quad", "klein_sequence", "one_sided_length",
        "quad_to_hurwitz", "reduce_to_sink", "trace_from_length",
        "two_sided_length", "two_sided_trace", "verify_quad",
    ),
    "curvecomplex": (
        "Face", "SpiralSequence", "VertexClass", "VertexKind", "Walk",
        "classify_vertex", "fibonacci_level_counts", "spiral_sequence", "walk",
    ),
    "spectra": (
        "CurveKind", "GrowthFit", "SpectrumEntry", "count_s", "fit_power_law",
        "growth_exponent", "one_sided_spectrum", "systole", "two_sided_spectrum",
    ),
    "mcshane": (
        "BqReport", "McShaneReport", "Verdict", "check_bq", "finite_tree_psi_sum",
        "h", "mcshane_partial", "mcshane_verify", "psi",
    ),
    "integral": ("classify", "enumerate_fundamental", "enumerate_integral_below"),
    "coords": (
        "DomainCheck", "HorocyclicCoords", "LambdaCoords", "McgRelationsReport",
        "horocyclic_to_quad", "in_fundamental_domain", "lambda_to_quad",
        "mcg_apply", "mcg_relations_check", "quad_to_horocyclic", "quad_to_lambda",
        "sample_fuchsian_quad", "sample_horocyclic",
    ),
}
# exported name -> home module; a home module's own name maps to itself
_EXPORTS = {name: home for home, names in _HOMES.items() for name in (home, *names)}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    home = _EXPORTS.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # an absolute __import__ with no fromlist never asks this package for
    # `name`, so it cannot come back here
    __import__(f"{__name__}.{home}")
    module = sys.modules[f"{__name__}.{home}"]
    value = module if name == home else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
