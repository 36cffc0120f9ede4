"""The package exports, each loaded from its home module on first use."""

import os
import subprocess
import sys

import pytest

import markoffquads

# what `from markoffquads import *` bound in a fresh interpreter when the
# package imported its seven library modules up front: the exported names
# and those modules, less `FibonacciAssignment`, `fibonacci_values`,
# `int_flip` (whose work `flip` does) and the integer reduction (whose
# work `reduce_to_sink` does), which were deleted later
STAR_NAMES = sorted("""
    BqReport BqViolationError BranchCutError BudgetExceededError CurveKind
    DEFAULT_TOL DegenerateClassError DomainCheck DomainError Face
    GrowthFit HorocyclicCoords IntegerQuad InvalidQuadError
    KleinSequence LambdaCoords MarkoffError MarkoffQuad Matrix2 McShaneReport
    McgRelationsReport SpectrumEntry SpiralSequence Verdict VertexClass
    VertexKind Walk build_representation check_bq classify classify_vertex
    complete_quad coords count_s curvecomplex enumerate_fundamental
    enumerate_integral_below errors fibonacci_level_counts
    finite_tree_psi_sum fit_power_law flip flip_value flips fricke_residual
    growth_exponent h horocyclic_to_quad hurwitz_to_quad in_fundamental_domain
    integral klein_sequence lambda_to_quad mcg_apply
    mcg_relations_check mcshane mcshane_partial mcshane_verify one_sided_length
    one_sided_spectrum psi quad_to_horocyclic quad_to_hurwitz quad_to_lambda
    quadalgebra reduce_to_sink sample_fuchsian_quad sample_horocyclic spectra
    spiral_sequence systole trace_from_length two_sided_length
    two_sided_spectrum two_sided_trace verify_quad walk
""".split())


def test_every_export_is_its_home_module_attribute():
    for name in markoffquads.__all__:
        value = getattr(markoffquads, name)  # loads the home module
        home = sys.modules[f"markoffquads.{markoffquads._EXPORTS[name]}"]
        assert value is (home if name in markoffquads._HOMES else getattr(home, name)), name
    assert markoffquads.walk is markoffquads.curvecomplex.walk


def test_dir_lists_every_export():
    assert set(dir(markoffquads)) >= set(markoffquads.__all__)
    assert "__version__" in dir(markoffquads)


def test_star_import_binds_the_same_names_and_loads_on_demand():
    # a fresh interpreter: `import markoffquads` loads no library module,
    # and the star import binds what it bound before the exports were lazy
    src = os.path.dirname(os.path.dirname(markoffquads.__file__))
    code = ("import sys\n"
            "import markoffquads\n"
            "print(*sorted(m for m in sys.modules if m.startswith('markoffquads')))\n"
            "names = {}\n"
            "exec('from markoffquads import *', names)\n"
            "print(*sorted(names.keys() - {'__builtins__'}))\n")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0 and proc.stderr == ""
    loaded, bound = proc.stdout.splitlines()
    assert loaded == "markoffquads"
    assert bound.split() == STAR_NAMES == sorted(markoffquads.__all__)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="'markoffquads' has no attribute 'no_such_name'"):
        markoffquads.no_such_name
    assert not hasattr(markoffquads, "_no_such_private")
    with pytest.raises(ImportError):
        from markoffquads import no_such_name  # noqa: F401


# names the benchmark harness reaches by module attribute: flip_value
# times the flip kernel (quadalgebra.flip_ns), _build_parser is part of
# the timed start-up (setup_s), and the rest are the functions its
# tracer wraps in spans (the per-layer self_s, calls and emit figures).
# A renamed one reads as zero, with no error, so a change that renames
# one updates this list and names the per-layer figure that moves.
BENCHMARKED = {
    "quadalgebra": ["flip_value"],
    "cli": ["_build_parser", "_emit"],
    "spectra": ["reduce_to_sink", "one_sided_length", "two_sided_length", "count_s",
                "one_sided_spectrum", "fit_power_law"],
    "mcshane": ["h", "check_bq", "_partial"],
}


def test_the_names_the_benchmark_reaches_are_callable():
    import importlib
    for module, names in BENCHMARKED.items():
        home = importlib.import_module(f"markoffquads.{module}")
        for name in names:
            assert callable(getattr(home, name, None)), f"{module}.{name}"
