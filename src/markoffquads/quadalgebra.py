"""Core algebra of Markoff quads.

A Markoff quad is a 4-tuple (a, b, c, d) of complex numbers satisfying

    (a + b + c + d)^2 = a*b*c*d.

The entries are traces of four once-intersecting one-sided simple closed
curves on a thrice-punctured projective plane; each equals 2*sinh of half
the complex length of the corresponding geodesic.  This module provides
the two quad types, MarkoffQuad (complex traces, checked against the
relation to a tolerance) and IntegerQuad (nonnegative ints, exact), the
quad relation, one flip and one descent to the sink for both types,
quad completion, trace/length conversions, explicit SL(2,C)-representation
matrices, the Fricke relation as a numerical oracle, the Markoff-Hurwitz
substitution and the punctured Klein bottle trace recursion.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

from .errors import (
    BranchCutError,
    BudgetExceededError,
    DegenerateClassError,
    DomainError,
    InvalidQuadError,
)

DEFAULT_TOL = 1e-9
# the cell budget of a walk or an enumeration; it lives here, with the
# other default, so that integer quads need not load the walker
DEFAULT_MAX_CELLS = 200_000
DEFAULT_MAX_STEPS = 10_000  # the step cap of a float descent to the sink


def _as_complex(x) -> complex:
    try:
        z = complex(x)
    except OverflowError:  # an int past the float range
        raise DomainError("value out of float range") from None
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError(f"non-finite value {x!r}")
    return z


def _tol(tol: float) -> float:
    """tol itself, or DomainError for a NaN, which every check would fail."""
    if tol != tol:
        raise DomainError("tol must not be NaN")
    return tol


def _value_eq(self, other):
    if other.__class__ is self.__class__:
        return tuple.__eq__(self, other)
    # a plain tuple or another record type would otherwise compare by value
    return False if isinstance(other, tuple) else NotImplemented


def _value_ne(self, other):
    eq = _value_eq(self, other)
    return eq if eq is NotImplemented else not eq


def _value_type(cls):
    """Class decorator for NamedTuple value types: an instance equals
    only an instance of the same class with equal fields (never a plain
    tuple or another record type), and hashes as its field tuple."""
    cls.__eq__, cls.__ne__, cls.__hash__ = _value_eq, _value_ne, tuple.__hash__
    return cls


class _QuadFields(NamedTuple):
    a: complex
    b: complex
    c: complex
    d: complex


@_value_type
class _Quad(_QuadFields):
    """The record under both quad types: four entries a..d, built only
    through the subclass's checking constructor."""

    __slots__ = ()

    @classmethod
    def from_values(cls, values):
        vals = tuple(values)
        if len(vals) != 4:
            raise DomainError(f"expected 4 entries, got {len(vals)}")
        return cls(*vals)

    _make = from_values  # so that _replace and flip validate too

    def values(self) -> tuple:
        return tuple(self)


class MarkoffQuad(_Quad):
    """Ordered 4-tuple of complex traces.  Entries are kept verbatim;
    validity against the quad relation is checked by residual()."""

    __slots__ = ()

    def __new__(cls, a, b, c, d):
        return tuple.__new__(cls, (_as_complex(a), _as_complex(b), _as_complex(c), _as_complex(d)))

    def residual(self) -> float:
        a, b, c, d = self.values()
        s = a + b + c + d
        prod = a * b * c * d
        try:
            r = abs(s * s - prod) / max(1.0, abs(prod))
        except OverflowError:  # finite parts whose modulus is past the float range
            r = math.inf
        if not math.isfinite(r):
            raise DomainError(f"quad relation overflows float range for {self.values()}")
        return r

    def require_valid(self, tol: float = DEFAULT_TOL) -> "MarkoffQuad":
        r = self.residual()
        if not r <= _tol(tol):
            raise InvalidQuadError(
                f"quad relation violated: residual {r:.3e} > tol {tol:.3e} "
                f"for {self.values()}"
            )
        return self


class IntegerQuad(_Quad):
    """Nonnegative integer solution of (a+b+c+d)^2 = abcd, exact.  It
    answers what a MarkoffQuad is asked: the constructor proves the
    relation, so the residual is 0.0 and every tolerance but NaN
    passes."""

    __slots__ = ()

    def __new__(cls, a, b, c, d):
        vals = (a, b, c, d)
        # one test passes four plain nonnegative ints; the loop names the first bad entry
        if not (type(a) is type(b) is type(c) is type(d) is int and min(vals) >= 0):
            for name, v in zip("abcd", vals):
                if not isinstance(v, int) or isinstance(v, bool):
                    raise DomainError(f"entry {name}={v!r} is not an int")
                if v < 0:
                    raise DomainError(f"entry {name}={v} is negative")
        s = a + b + c + d
        if s * s != a * b * c * d:
            raise InvalidQuadError(f"({a},{b},{c},{d}) fails (a+b+c+d)^2 = abcd")
        return tuple.__new__(cls, vals)

    def residual(self) -> float:
        return 0.0

    def require_valid(self, tol: float = DEFAULT_TOL) -> "IntegerQuad":
        _tol(tol)  # as MarkoffQuad.require_valid rejects it
        return self


def verify_quad(q: MarkoffQuad, tol: float = DEFAULT_TOL) -> float:
    """Relative residual of the quad relation; <= tol means valid."""
    if not tol > 0:  # NaN too
        raise DomainError("tol must be positive")
    return q.residual()


def flips(a, b, c, d):
    """All four flips of the quad (a, b, c, d): entry k of the result
    replaces entry k.  Each is the product of the other three minus
    twice their sum minus the old entry, the others taken in slot order;
    that fixed operation order makes float results reproducible to the
    bit.  Exact for int/Fraction input."""
    return (b * c * d - 2 * (b + c + d) - a,
            a * c * d - 2 * (a + c + d) - b,
            a * b * d - 2 * (a + b + d) - c,
            a * b * c - 2 * (a + b + c) - d)


def flip_value(values, i: int):
    """New value replacing entry i (1-based) of the four values."""
    if i not in (1, 2, 3, 4):
        raise DomainError(f"entry index must be 1..4, got {i}")
    return flips(*values)[i - 1]


def flip(q: MarkoffQuad | IntegerQuad, i: int) -> MarkoffQuad | IntegerQuad:
    """Replace entry i by the other root of the completion quadratic.
    Involutive, and maps valid quads to valid quads.  The result has
    q's type, so an IntegerQuad flips exactly."""
    vals = list(q)
    vals[i - 1] = flip_value(vals, i)
    return q._make(vals)


def reduce_to_sink(q: MarkoffQuad | IntegerQuad, *,
                   tol: float = DEFAULT_TOL) -> tuple[MarkoffQuad | IntegerQuad, list[int]]:
    """Flip strictly-decreasing directions until none remains; returns
    the sink, in q's type, and the flip word (1-based slots).

    At each step the largest-magnitude entry whose flip strictly
    decreases it is flipped (ties on magnitude break to the lowest
    index).  Ties |d'| = |d| are terminal moves, never taken.  An
    IntegerQuad descends exactly and with no step cap, since each step
    lowers a nonnegative int entry.  A MarkoffQuad raises
    BudgetExceededError after DEFAULT_MAX_STEPS flips, and DomainError
    at a flip whose modulus is past the float range.
    """
    q.require_valid(tol)
    exact = isinstance(q, IntegerQuad)
    vals = list(q)
    path: list[int] = []
    try:
        while exact or len(path) < DEFAULT_MAX_STEPS:
            new = flips(*vals)
            best = None
            for i in range(4):
                if abs(new[i]) < abs(vals[i]):
                    if best is None or abs(vals[i]) > abs(vals[best]):
                        best = i
            if best is None:
                return q._make(vals), path
            vals[best] = new[best]
            path.append(best + 1)
    except OverflowError:  # abs of finite parts whose modulus is past the float range
        raise DomainError("a flip's modulus is out of float range") from None
    raise BudgetExceededError(f"no sink within {DEFAULT_MAX_STEPS} flips; "
                              "input may cycle among ties or be non-summable")


def complete_quad(a, b, c) -> tuple[complex, complex]:
    """Both roots (d, dPrime) of x^2 + (2a+2b+2c-abc)x + (a+b+c)^2.

    Either root completes (a, b, c) to a Markoff quad.  The larger
    magnitude root is returned second; exact ties are ordered by
    (re, im) lexicographically.  Roots past the float range raise
    DomainError.
    """
    a, b, c = _as_complex(a), _as_complex(b), _as_complex(c)
    s = a + b + c
    B = 2 * s - a * b * c
    C = s * s
    try:
        disc = cmath.sqrt(B * B - 4 * C)
        r1 = (-B + disc) / 2
        r2 = (-B - disc) / 2
        big, small = (r1, r2) if abs(r1) >= abs(r2) else (r2, r1)
        if big != 0:
            small = C / big  # Vieta refinement: avoids cancellation in the small root
        if abs(small) > abs(big):
            small, big = big, small
        if not (cmath.isfinite(small) and cmath.isfinite(big)):
            raise OverflowError
    except OverflowError:  # a root, or the modulus of one, past the float range
        raise DomainError("a completing root is out of float range") from None
    if abs(small) == abs(big) and (big.real, big.imag) < (small.real, small.imag):
        small, big = big, small
    # 0j + r turns a -0.0 part into +0.0 and changes no other bit, so a
    # root completed from real entries is real with imaginary part +0.0
    return 0j + small, 0j + big


def two_sided_trace(a, b) -> complex:
    """Trace of the unique two-sided simple curve disjoint from a
    once-intersecting pair with traces a and b:  e = a*b - 2."""
    return _as_complex(a) * _as_complex(b) - 2


def one_sided_length(a) -> complex:
    """Complex length of a one-sided class with trace a = 2 sinh(l/2).

    Principal branch, reflected so Re(l) >= 0; the reflection absorbs
    the lift's sign ambiguity, so the inverse returns the trace with
    Re >= 0 convention.  Zero trace signals a parabolic class.
    """
    a = _as_complex(a)
    if a == 0:
        raise DegenerateClassError("zero trace: parabolic/degenerate one-sided class")
    ell = 2 * cmath.asinh(a / 2)
    if ell.real < 0:
        ell = -ell
    return ell


def trace_from_length(ell) -> complex:
    """Inverse of one_sided_length: a = 2 sinh(l/2)."""
    return 2 * cmath.sinh(_as_complex(ell) / 2)


BRANCH_TOL = 1e-9  # the one width of the branch cut, whatever the relation tol


def two_sided_length(e) -> complex:
    """Complex length of a two-sided class with trace e = 2 cosh(l/2).

    Principal branch (Re >= 0).  Real e in [-2, 2] is elliptic or
    parabolic: e within BRANCH_TOL of it is rejected, as h rejects e + 2
    near [0, 4].  The test is skipped when |e| > 4, where e lies more
    than 2 from [-2, 2] and the test would pass.  e is finite here, as
    _as_complex rejects the rest; finite parts whose modulus is past the
    float range raise DomainError.
    """
    e = _as_complex(e)
    try:
        ae = abs(e)
    except OverflowError:
        raise DomainError(f"modulus of {e} out of float range") from None
    if not ae > 4.0 and _segment_distance(e, -2.0, 2.0) <= BRANCH_TOL:
        raise BranchCutError(f"two-sided trace {e} within {BRANCH_TOL:g} of [-2,2]")
    return 2 * cmath.acosh(e / 2)


def _segment_distance(z: complex, lo: float, hi: float) -> float:
    """Distance from z to the real segment [lo, hi]."""
    t = min(max(z.real, lo), hi)
    return abs(z - t)


@_value_type
class Matrix2(NamedTuple):
    """2x2 complex matrix with exact entrywise arithmetic."""

    m11: complex
    m12: complex
    m21: complex
    m22: complex

    def __matmul__(self, o: "Matrix2") -> "Matrix2":
        return Matrix2(
            self.m11 * o.m11 + self.m12 * o.m21,
            self.m11 * o.m12 + self.m12 * o.m22,
            self.m21 * o.m11 + self.m22 * o.m21,
            self.m21 * o.m12 + self.m22 * o.m22,
        )

    def trace(self) -> complex:
        return self.m11 + self.m22

    def det(self) -> complex:
        return self.m11 * self.m22 - self.m12 * self.m21

    def inverse(self) -> "Matrix2":
        d = self.det()
        if d == 0:
            raise DomainError("singular matrix")
        return Matrix2(self.m22 / d, -self.m12 / d, -self.m21 / d, self.m11 / d)

    @classmethod
    def identity(cls) -> "Matrix2":
        return cls(1, 0, 0, 1)


def _zero_rep(b: complex, c: complex) -> tuple[Matrix2, Matrix2, Matrix2]:
    # generators for the quad (0, b, c, -(b+c)); all dets -1, peripherals 2
    return (
        Matrix2(0, 1, 1, 0),
        Matrix2(b, 1, 1, 0),
        Matrix2(0, 1, 1, c),
    )


def _generic_rep(a, b, c, t) -> tuple[Matrix2, Matrix2, Matrix2]:
    # template parameter t is the flip of the target fourth trace: the
    # matrices below realize (a, b, c, abc - 2(a+b+c) - t)
    s = a + b + c + t
    m1 = Matrix2(a * b / s, b * (a + c) / s, a * (a + t) / s, a * (a + c + t) / s)
    m2 = Matrix2(a * b / s, -b * (b + t) / s, -a * (b + c) / s, b * (b + c + t) / s)
    m3 = Matrix2((a * b + c * s) / s, b * (a + c) / s, -a * (b + c) / s, -a * b / s)
    return m1, m2, m3


def build_representation(q: MarkoffQuad, tol: float = DEFAULT_TOL) -> tuple[Matrix2, Matrix2, Matrix2]:
    """Explicit matrices (M1, M2, M3) for the generators, satisfying

        tr Mi = (a, b, c),  det Mi = -1,
        tr M1M2 = tr M2M3 = tr M3M1 = 2,  tr (M1M2M3)^-1 = d.

    Entries within tol of zero route to the explicit zero-trace branch
    (the zero is rotated into the first generator slot; cyclic rotations
    of the generators preserve the fourth trace).  When an entry is that
    small the fourth trace is forced to -(sum of the other two) by the
    relation, so the realized d matches the input only to the residual.
    """
    q.require_valid(tol)
    a, b, c, d = q.values()
    ztol = tol * (1.0 + max(abs(v) for v in (a, b, c, d)))
    if abs(a) <= ztol:
        return _zero_rep(b, c)
    if abs(b) <= ztol:
        g1, g2, g3 = _zero_rep(c, a)  # generators (beta, gamma, alpha)
        return g3, g1, g2
    if abs(c) <= ztol:
        g1, g2, g3 = _zero_rep(a, b)  # generators (gamma, alpha, beta)
        return g2, g3, g1
    dflip = flip_value((a, b, c, d), 4)
    if abs(a + b + c + dflip) <= ztol:
        # d's flip is 0 and a+b+c = 0: realize (a, c, b, 0) instead and
        # swap the last two generators, which exchanges the completion roots
        m1, m2, m3 = _generic_rep(a, c, b, a * b * c)
        return m1, m3, m2
    return _generic_rep(a, b, c, dflip)


def fricke_residual(a1: Matrix2, a2: Matrix2, a3: Matrix2) -> float:
    """Scale-free residual of the general GL(2,C) trace relation for
    three matrices and their product A0 = A1*A2*A3.

    The symmetric sum runs over unordered pairs {j,k}; the printed form
    sums ordered triples with a factor 1/2, which is the same thing.
    Residual is |LHS - RHS| divided by the largest monomial magnitude.
    """
    mats = (a1, a2, a3)
    a0 = a1 @ a2 @ a3
    t = [m.trace() for m in mats]
    d = [m.det() for m in mats]
    t0 = a0.trace()
    tp = {}
    for i in range(3):
        for j in range(3):
            if i != j:
                tp[(i, j)] = (mats[i] @ mats[j]).trace()
    lhs = 4 * a0.det()
    rhs = t0 * t0 + t[0] * t[1] * t[2] * t0 + tp[(0, 1)] * tp[(1, 2)] * tp[(2, 0)]
    monomials = [abs(lhs), abs(t0 * t0), abs(t[0] * t[1] * t[2] * t0),
                 abs(tp[(0, 1)] * tp[(1, 2)] * tp[(2, 0)])]
    for i in range(3):
        j, k = [m for m in range(3) if m != i]
        djk = (mats[j] @ mats[k]).det()
        pieces = (
            t[i] * t[i] * djk,
            -d[i] * t[j] * t[k] * tp[(j, k)],
            d[i] * tp[(j, k)] ** 2,
            -t0 * t[i] * tp[(j, k)],
        )
        rhs += sum(pieces)
        monomials.extend(abs(p) for p in pieces)
    return abs(lhs - rhs) / max(1.0, max(monomials))


def hurwitz_to_quad(a1, a2, a3, a4, tol: float = DEFAULT_TOL) -> MarkoffQuad:
    """Map a solution of a1^2+a2^2+a3^2+a4^2 = a1*a2*a3*a4 to the Markoff
    quad of its squares."""
    vals = tuple(_as_complex(v) for v in (a1, a2, a3, a4))
    sq = sum(v * v for v in vals)
    prod = vals[0] * vals[1] * vals[2] * vals[3]
    if not abs(sq - prod) <= max(1.0, abs(prod)) * _tol(tol):
        raise InvalidQuadError(
            f"not a Markoff-Hurwitz solution: |sum sq - prod| = {abs(sq - prod):.3e}"
        )
    return MarkoffQuad(*(v * v for v in vals))


def quad_to_hurwitz(q: MarkoffQuad, tol: float = DEFAULT_TOL) -> tuple[complex, complex, complex, complex]:
    """One representative of the sign orbit mapping back to q.

    Principal square roots; if the principal choice lands on the wrong
    branch of the sign action the last root is negated (this leaves the
    squares, hence the quad, unchanged).  Not claimed canonical.
    """
    q.require_valid(tol)
    roots = [cmath.sqrt(v) for v in q.values()]
    sq = sum(r * r for r in roots)
    prod = roots[0] * roots[1] * roots[2] * roots[3]
    if abs(sq - prod) > tol * max(1.0, abs(prod)):
        roots[3] = -roots[3]
    return tuple(roots)


class KleinSequence(NamedTuple):
    """Trace data for the one-sided curves of a punctured Klein bottle.

    A = 2 cosh(l/2) of the unique two-sided curve; terms are sinh of the
    one-sided half-lengths, consecutive pairs satisfying

        x^2 + y^2 - x*y*A = -1.

    Terms keep the numeric type of the seeds (ints and Fractions stay
    exact); lambda_plus/lambda_minus are the floating roots of
    z^2 - A z + 1 ordered by magnitude.
    """

    A: object
    terms: tuple
    lambda_plus: complex
    lambda_minus: complex

    def relation_residual(self, i: int):
        x, y = self.terms[i], self.terms[i + 1]
        return x * x + y * y - x * y * self.A + 1


def klein_sequence(A, a0, a1, n: int, tol: float = DEFAULT_TOL) -> KleinSequence:
    """Extend a seed pair to n terms of the Klein bottle trace recursion
    a_{i+1} = A*a_i - a_{i-1} (consecutive quadratic relations differ by
    exactly this linear recurrence)."""
    if n < 2:
        raise DomainError("need n >= 2 terms")
    try:
        res = abs(complex(a0 * a0 + a1 * a1 - a0 * a1 * A + 1))
        scale = 1.0 + abs(complex(a0 * a0)) + abs(complex(a1 * a1)) + abs(complex(a0 * a1 * A))
    except OverflowError:  # an int past the float range
        raise DomainError("seed relation out of float range") from None
    if not math.isfinite(res):
        raise DomainError(f"seed relation residual is not finite for A={A!r}, seeds {a0!r}, {a1!r}")
    if not res <= scale * _tol(tol):
        raise InvalidQuadError(f"seed pair violates the relation: residual {res:.3e}")
    terms = [a0, a1]
    for _ in range(n - 2):
        terms.append(A * terms[-1] - terms[-2])
    ac = complex(A)
    disc = cmath.sqrt(ac * ac - 4)
    lp, lm = (ac + disc) / 2, (ac - disc) / 2
    if abs(lp) < abs(lm):
        lp, lm = lm, lp
    return KleinSequence(A=A, terms=tuple(terms), lambda_plus=lp, lambda_minus=lm)
