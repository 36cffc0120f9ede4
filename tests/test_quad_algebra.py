import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markoffquads import (
    BranchCutError,
    DegenerateClassError,
    DomainError,
    InvalidQuadError,
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
from helpers import (around, brute_flip, completion_roots, quad_residual, random_complex_quad,
                     value_bits_or_error)
from markoffquads.quadalgebra import BRANCH_TOL, _as_complex, _segment_distance


def test_verify_quad_examples():
    assert verify_quad(MarkoffQuad(4, 4, 4, 4)) == 0.0  # 16^2 = 256 = 4^4
    assert verify_quad(MarkoffQuad(0, 0, 0, 0)) == 0.0
    assert verify_quad(MarkoffQuad(1, 5, 24, 30)) == 0.0  # 60^2 = 3600
    assert verify_quad(MarkoffQuad(1, 1, 1, 1)) == pytest.approx(15.0)  # |16-1|/1


def test_quad_rejects_non_finite():
    with pytest.raises(Exception):
        MarkoffQuad(float("nan"), 1, 1, 1)
    with pytest.raises(Exception):
        MarkoffQuad(float("inf"), 1, 1, 1)
    with pytest.raises(DomainError):
        MarkoffQuad(4, 4, 10 ** 400, 10 ** 400)  # int past the float range
    with pytest.raises(DomainError, match="expected 4 entries, got 3"):
        MarkoffQuad.from_values((4, 4, 4))
    # finite entries whose relation overflows, to inf or to a finite
    # complex whose modulus is past the float range: never a passing residual
    x = cmath.rect(1.19e77, math.pi / 16)  # x**4 has modulus 2.0e308
    for big in (MarkoffQuad(1e200, 1e200, 1e200, 1e200), MarkoffQuad(x, x, x, x)):
        for check in (big.residual, big.require_valid, lambda: verify_quad(big)):
            with pytest.raises(DomainError):
                check()


def test_flip_examples():
    assert flip(MarkoffQuad(4, 4, 4, 4), 4).values() == (4, 4, 4, 36)
    # self-flip: 1*5*24 - 2*(1+5+24) - 30 = 30
    assert flip(MarkoffQuad(1, 5, 24, 30), 4).values() == (1, 5, 24, 30)


def test_flip_involution_and_closure_random():
    rng = random.Random(11)
    for _ in range(200):
        vals = random_complex_quad(rng)
        q = MarkoffQuad.from_values(vals)
        for i in (1, 2, 3, 4):
            q2 = flip(q, i)
            assert q2.residual() <= 1e-9
            back = flip(q2, i)
            for x, y in zip(back.values(), q.values()):
                assert abs(x - y) <= 1e-9 * max(1.0, abs(y))


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50),
       st.integers(-50, 50), st.sampled_from([1, 2, 3, 4]))
@settings(max_examples=200)
def test_flip_involution_exact_integers(a, b, c, d, i):
    # involativity is a formal identity, no quad relation needed
    vals = (a, b, c, d)
    once = list(vals)
    o = [v for j, v in enumerate(vals) if j != i - 1]
    once[i - 1] = o[0] * o[1] * o[2] - 2 * sum(o) - vals[i - 1]
    twice = list(once)
    o = [v for j, v in enumerate(once) if j != i - 1]
    twice[i - 1] = o[0] * o[1] * o[2] - 2 * sum(o) - once[i - 1]
    assert tuple(twice) == vals


def test_flips_examples():
    assert flips(4, 4, 4, 4)[3] == 36
    # flipping the same slot back restores the parent
    assert flips(4, 4, 4, 36)[3] == 4
    # depth-2 word: flip 4, then flip 1
    assert flips(4, 4, 4, 36)[0] == 484


def test_flips_match_per_entry_formula_bit_for_bit():
    rng = random.Random(12)
    quads = [random_complex_quad(rng) for _ in range(500)]
    # arbitrary tuples too, with wide exponents: rounding shows in the low bits
    quads += [tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * 10 ** rng.randint(-8, 30)
                    for _ in range(4)) for _ in range(500)]
    for vals in quads:
        got = flips(*vals)
        for i in range(1, 5):
            want = brute_flip(vals, i)
            assert repr(got[i - 1]) == repr(want)
            assert repr(flip_value(vals, i)) == repr(want)
    for vals in [(4, 4, 4, 4), (1, 5, 24, 30), (3, 3, 6, 10 ** 40),
                 (Fraction(1, 3), Fraction(-2, 7), 5, Fraction(9, 4))]:
        got = flips(*vals)
        assert got == tuple(brute_flip(vals, i) for i in range(1, 5))
        assert [type(v) for v in got] == [type(brute_flip(vals, i)) for i in range(1, 5)]
    assert flips(4, 4, 4, 4) == (36, 36, 36, 36)


def test_complete_quad_examples():
    # oracle: quadratic formula
    r1, r2 = completion_roots(4, 4, 4)
    assert sorted([abs(r1), abs(r2)]) == [4, 36]
    d, dp = complete_quad(4, 4, 4)
    assert d == pytest.approx(4)
    assert dp == pytest.approx(36)
    # double root: x^2 - 60x + 900 = (x - 30)^2
    d, dp = complete_quad(1, 5, 24)
    assert d == pytest.approx(30)
    assert dp == pytest.approx(30)
    # conjugate roots: (2, 2, 1.5) swaps them after the Vieta refinement,
    # and (3, 1, 0.5) ties on modulus exactly and orders them by (re, im)
    for abc in [(2, 2, 1.5), (3, 1, 0.5)]:
        d, dp = complete_quad(*abc)
        assert d == pytest.approx(dp.conjugate(), rel=1e-15)
        for root in (d, dp):
            assert MarkoffQuad(*abc, root).residual() <= 1e-15
        assert abs(d) < abs(dp) or (abs(d) == abs(dp) and (d.real, d.imag) <= (dp.real, dp.imag))
    d, dp = complete_quad(3, 1, 0.5)
    assert abs(d) == abs(dp) and d.real == -3.75 and d.imag > 0


@pytest.mark.parametrize("a, b, c", [
    (4, 4, 4), (3, 4, 5), (1, 5, 24), (1e5, 1e5, 1e5), (-4, -4, -4), (2, 2, -4), (0, 0, 0),
])
def test_complete_quad_zero_parts_are_positive(a, b, c):
    # a root completed from real entries is real, with imaginary part
    # +0.0: a -0.0 would keep the quad off the real walk
    for root in complete_quad(a, b, c):
        for part in (root.real, root.imag):
            if part == 0.0:
                assert math.copysign(1.0, part) == 1.0, (a, b, c, root)


def test_complete_quad_past_the_float_range():
    # the cube of z has modulus past the float range: the quadratic's
    # coefficients overflow, and its roots would be NaN
    z = 5.741387723620521e+102 + 1.5384002039780802e+102j
    with pytest.raises(DomainError, match="out of float range"):
        complete_quad(z, z, z)


def test_complete_quad_vieta_random():
    rng = random.Random(5)
    for _ in range(300):
        a = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        b = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        c = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        d, dp = complete_quad(a, b, c)
        s = a + b + c
        scale = max(1.0, abs(d * dp))
        assert abs(d * dp - s * s) <= 1e-12 * scale
        assert abs(d + dp + 2 * s - a * b * c) <= 1e-12 * max(1.0, abs(a * b * c))
        assert abs(dp) >= abs(d)
        for root in (d, dp):
            assert quad_residual((a, b, c, root)) <= 1e-9 * max(1.0, abs(a * b * c * root))


def test_two_sided_trace_examples():
    assert two_sided_trace(4, 4) == 14
    assert two_sided_trace(5, 0) == -2
    assert two_sided_trace(4, 36) == 142


def test_one_sided_length_examples():
    assert one_sided_length(4) == pytest.approx(2 * math.asinh(2), abs=1e-12)
    with pytest.raises(DegenerateClassError):
        one_sided_length(0)
    assert trace_from_length(one_sided_length(5)) == pytest.approx(5, abs=1e-12)


def test_one_sided_length_principal_branch():
    for a in (4, 0.1, 2 + 1j, -3 + 0.5j, 1j):
        ell = one_sided_length(a)
        assert ell.real >= 0
        # the reflected branch inverts up to the lift's sign
        t = trace_from_length(ell)
        assert min(abs(t - complex(a)), abs(t + complex(a))) <= 1e-12 * max(1, abs(a))


def test_two_sided_length_examples():
    assert two_sided_length(14) == pytest.approx(2 * math.acosh(7), abs=1e-12)
    with pytest.raises(BranchCutError):
        two_sided_length(2)
    with pytest.raises(BranchCutError):
        two_sided_length(-1.5)
    # just off the segment is fine
    assert two_sided_length(2 + 1e-3j).real >= 0


def _two_sided_length_always_testing_the_cut(e):
    # two_sided_length with the distance to [-2, 2] computed for every
    # input; a modulus past the float range is a DomainError, as there
    e = _as_complex(e)
    try:
        distance = _segment_distance(e, -2.0, 2.0)
    except OverflowError:
        raise DomainError(f"modulus of {e} out of float range") from None
    if distance <= BRANCH_TOL:
        raise BranchCutError(f"two-sided trace {e} within {BRANCH_TOL:g} of [-2,2]")
    return 2 * cmath.acosh(e / 2)


# |e| at 4 and 2 and one ulp either side, in four directions; points on
# the segment, within 1e-9 of it, and 0.4, 0.9, 3.9 and 9.9 from it,
# some of them with |e| > 4; NaN, infinite and overflowing inputs
_TRACE_POINTS = [u * r for r in (*around(4.0), *around(2.0)) for u in (1, -1, 1j, -1j)] + [
    0, 1e-300, 1.5, -2, 2 - 1e-12, 2 + 0.5e-9, 1 + 0.5e-9j, -2 - 0.5e-9, 2.4, 2.9, 5.9, 11.9,
    -2.4, -5.9, 1 + 9.9j, 4.5j, complex(math.nextafter(4.0, math.inf), 0.25),
    math.nan, math.inf, -math.inf, complex(math.nan, math.inf), complex(2, math.nan),
    complex(1.5e308, 1.5e308), complex(1.5e308, -1.5e308),
]


def test_two_sided_length_far_from_the_cut_skips_only_a_test_that_passes():
    # where |e| > 4 the distance to [-2, 2] is left out; every value and
    # error stays the same bit for bit
    for e in _TRACE_POINTS:
        assert value_bits_or_error(two_sided_length, e) == \
            value_bits_or_error(_two_sided_length_always_testing_the_cut, e), e


def test_two_sided_length_h_consistency():
    # algebraic identity: h(2 cosh t + 2) = 1/(1 + e^t)
    from markoffquads import h

    for ab in (16.0, 5.0, 144.0):
        ell = two_sided_length(ab - 2)
        lhs = 1 / (1 + cmath.exp(ell / 2))
        assert abs(lhs - h(ab)) <= 1e-12


def _check_representation(q: MarkoffQuad, tol=1e-9):
    m1, m2, m3 = build_representation(q)
    a, b, c, d = q.values()
    prod = m1 @ m2 @ m3
    checks = [
        (m1.trace(), a), (m2.trace(), b), (m3.trace(), c),
        (m1.det(), -1), (m2.det(), -1), (m3.det(), -1),
        ((m1 @ m2).trace(), 2), ((m2 @ m3).trace(), 2), ((m3 @ m1).trace(), 2),
        (prod.inverse().trace(), d),
    ]
    for got, want in checks:
        assert abs(got - want) <= tol * max(1.0, abs(want))


def test_build_representation_examples():
    _check_representation(MarkoffQuad(4, 4, 4, 4))
    _check_representation(MarkoffQuad(4, 4, 4, 36))
    _check_representation(MarkoffQuad(1, 5, 24, 30))


def test_build_representation_zero_branches():
    # zero slot 1 pins the explicit matrix
    b, c = 3 + 1j, -2.5 + 0j
    q = MarkoffQuad(0, b, c, -(b + c))
    m1, _, _ = build_representation(q)
    assert (m1.m11, m1.m12, m1.m21, m1.m22) == (0, 1, 1, 0)
    _check_representation(q)
    # zero in each other slot
    a, c = 2 + 0.5j, -1 + 0j
    _check_representation(MarkoffQuad(a, 0, c, -(a + c)))
    a, b = 1.5, 2 - 1j
    _check_representation(MarkoffQuad(a, b, 0, -(a + b)))
    # d = 0 forces a+b+c = 0
    a, b = 1.0, 2.0
    _check_representation(MarkoffQuad(a, b, -(a + b), 0))
    # all-zero quad
    _check_representation(MarkoffQuad(0, 0, 0, 0))
    # d nonzero but its flip vanishes: d = abc with a+b+c = 0
    a, b = 1 + 0.5j, -2 + 1j
    c = -(a + b)
    _check_representation(MarkoffQuad(a, b, c, a * b * c))


def test_build_representation_random_complex():
    rng = random.Random(23)
    n = 0
    while n < 200:
        vals = random_complex_quad(rng)
        if min(abs(v) for v in vals) < 1e-3:
            continue
        _check_representation(MarkoffQuad.from_values(vals))
        n += 1


def test_build_representation_rejects_invalid():
    with pytest.raises(InvalidQuadError):
        build_representation(MarkoffQuad(1, 1, 1, 1))


def test_representation_product_det():
    m1, m2, m3 = build_representation(MarkoffQuad(4, 4, 4, 36))
    assert abs((m1 @ m2 @ m3).det() - (-1)) <= 1e-12


def _random_matrix(rng):
    return Matrix2(*(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(4)))


def test_fricke_residual_identity_matrices():
    i2 = Matrix2.identity()
    assert fricke_residual(i2, i2, i2) <= 1e-15
    with pytest.raises(DomainError, match="singular matrix"):
        Matrix2(1, 2, 2, 4).inverse()


def test_fricke_residual_random_and_representation():
    rng = random.Random(3)
    for _ in range(200):
        assert fricke_residual(_random_matrix(rng), _random_matrix(rng),
                               _random_matrix(rng)) <= 1e-9
    mats = build_representation(MarkoffQuad(4, 4, 4, 36))
    assert fricke_residual(*mats) <= 1e-9


def test_hurwitz_examples():
    q = hurwitz_to_quad(2, 2, 2, 2)
    assert q.values() == (4, 4, 4, 4)
    assert hurwitz_to_quad(0, 0, 0, 0).values() == (0, 0, 0, 0)
    with pytest.raises(InvalidQuadError):
        hurwitz_to_quad(1, 1, 1, 1)


def test_hurwitz_roundtrip():
    rng = random.Random(9)
    for _ in range(100):
        vals = random_complex_quad(rng)
        q = MarkoffQuad.from_values(vals)
        roots = quad_to_hurwitz(q)
        # representative solves the degree-4 relation and squares back
        sq = sum(r * r for r in roots)
        prod = roots[0] * roots[1] * roots[2] * roots[3]
        assert abs(sq - prod) <= 1e-8 * max(1.0, abs(prod))
        back = hurwitz_to_quad(*roots, tol=1e-6)
        for x, y in zip(back.values(), q.values()):
            assert abs(x - y) <= 1e-9 * max(1.0, abs(y))
    # positive real quads use plain positive roots
    roots = quad_to_hurwitz(MarkoffQuad(4, 4, 4, 4))
    assert roots == (2, 2, 2, 2)


def test_klein_sequence_example():
    seq = klein_sequence(3, 1, 2, 6)
    assert seq.terms == (1, 2, 5, 13, 34, 89)
    assert seq.lambda_plus == pytest.approx((3 + math.sqrt(5)) / 2, abs=1e-12)
    assert seq.lambda_plus * seq.lambda_minus == pytest.approx(1, abs=1e-12)
    assert seq.lambda_plus + seq.lambda_minus == pytest.approx(3, abs=1e-12)
    for i in range(5):
        assert seq.relation_residual(i) == 0  # exact ints
    # for A < -2 the root of larger modulus is the one with the minus sign
    seq = klein_sequence(-3, 1, -1, 5)
    assert seq.terms == (1, -1, 2, -5, 13)
    assert seq.lambda_plus == pytest.approx(-(3 + math.sqrt(5)) / 2, abs=1e-12)
    assert abs(seq.lambda_plus) > abs(seq.lambda_minus)


def test_klein_sequence_bad_seed():
    # 1 + 1 - 2 = 0 != -1
    with pytest.raises(InvalidQuadError):
        klein_sequence(2, 1, 1, 5)


def test_klein_sequence_rejects_non_finite_relation():
    # the seed relation overflows to a NaN residual, which compares False
    # against any tolerance; it must not pass as valid
    for A, a0, a1 in [(1e200, 1e200, 1e200), (3, float("nan"), 2), (1e308, 3, 10)]:
        with pytest.raises(DomainError):
            klein_sequence(A, a0, a1, 3)


def test_klein_sequence_rejects_int_seeds_past_float_range():
    # exact int seeds whose relation terms cannot be held as floats are
    # a domain error, like any other int past the float range
    for A, a0, a1 in [(3, 10**200, 10**200), (10**400, 1, 1)]:
        with pytest.raises(DomainError, match="out of float range"):
            klein_sequence(A, a0, a1, 3)


def test_klein_sequence_ratio_converges():
    seq = klein_sequence(3, 1, 2, 32)
    ratio = seq.terms[31] / seq.terms[30]
    assert abs(ratio - (3 + math.sqrt(5)) / 2) <= 1e-6


def test_klein_sequence_relation_along_floats():
    # seed from 1 + x^2 - 4x = -1  ->  x = 2 + sqrt(2)
    seq = klein_sequence(4.0, 1.0, 2.0 + math.sqrt(2), 20)
    for i in range(19):
        assert abs(seq.relation_residual(i)) <= 1e-6 * max(1.0, abs(seq.terms[i + 1]) ** 2)
