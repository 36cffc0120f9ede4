"""Coordinates on the space of positive quads, and the mapping class
group action.

Positive quads globally parametrise the hyperbolic structures; two other
charts are implemented: lambda-lengths (square-root monomials of the
entries) and the horocyclic simplex H_i = entry / (sum of entries).
The mapping class group acts by the four flips and the Klein four-group
of permutations (b,a,d,c), (c,d,a,b), (d,c,b,a).
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DomainError
from .quadalgebra import DEFAULT_TOL, IntegerQuad, MarkoffQuad, _as_complex, _tol, _value_type, flip

_WALL_MARGIN = 1e-6


def _positive_real_values(q: MarkoffQuad, tol: float) -> tuple[float, float, float, float]:
    out = []
    for v in map(_as_complex, q.values()):  # an int past the float range raises
        if not (abs(v.imag) <= max(1.0, abs(v)) * _tol(tol) and v.real > 0):
            raise DomainError(f"entry {v} is not positive real")
        out.append(v.real)
    return tuple(out)


@_value_type
class LambdaCoords(NamedTuple):
    """Exponentials of half truncated arc lengths for the six arcs of an
    ideal triangulation."""

    l1: float
    l2: float
    l3: float
    m1: float
    m2: float
    m3: float

    def values(self) -> tuple[float, ...]:
        return tuple(self)

    def simplex_residual(self) -> float:
        """Max relative deviation among the three coupling equations
        (common quartic = each of three products of four coordinates)."""
        l1, l2, l3, m1, m2, m3 = self.values()
        lhs = m1 * m2 * m3 + m1 * l2 * l3 + l1 * m2 * l3 + l1 * l2 * m3
        rhs = (l1 * l2 * m1 * m2, l1 * l3 * m1 * m3, l2 * l3 * m2 * m3)
        scale = max(1.0, abs(lhs), *map(abs, rhs))
        return max(abs(lhs - r) for r in rhs) / scale


def quad_to_lambda(q: MarkoffQuad, tol: float = DEFAULT_TOL) -> LambdaCoords:
    a, b, c, d = _positive_real_values(q, tol)
    return LambdaCoords(
        l1=math.sqrt(b * c), l2=math.sqrt(a * c), l3=math.sqrt(a * b),
        m1=math.sqrt(a * d), m2=math.sqrt(b * d), m3=math.sqrt(c * d),
    )


def lambda_to_quad(lc: LambdaCoords, tol: float = DEFAULT_TOL) -> MarkoffQuad:
    if any(v <= 0 for v in lc.values()):
        raise DomainError("lambda coordinates must be positive")
    l1, l2, l3, m1, m2, m3 = lc.values()
    return MarkoffQuad(
        a=l2 * l3 / l1, b=l1 * l3 / l2, c=l1 * l2 / l3, d=m1 * m2 / l3,
    ).require_valid(tol)


@_value_type
class HorocyclicCoords(NamedTuple):
    """Open-simplex coordinates: each entry divided by the entry sum."""

    ha: float
    hb: float
    hc: float
    hd: float

    def values(self) -> tuple[float, float, float, float]:
        return tuple(self)


def quad_to_horocyclic(q: MarkoffQuad, tol: float = DEFAULT_TOL) -> HorocyclicCoords:
    a, b, c, d = _positive_real_values(q, tol)
    s = a + b + c + d
    return HorocyclicCoords(ha=a / s, hb=b / s, hc=c / s, hd=d / s)


def horocyclic_to_quad(h: HorocyclicCoords, tol: float = DEFAULT_TOL) -> MarkoffQuad:
    ha, hb, hc, hd = h.values()
    if min(ha, hb, hc, hd) <= 0:
        raise DomainError("horocyclic coordinates must be positive")
    if not abs(ha + hb + hc + hd - 1.0) <= _tol(tol):
        raise DomainError("horocyclic coordinates must sum to 1")
    try:
        return MarkoffQuad(
            a=math.sqrt(ha / (hb * hc * hd)),
            b=math.sqrt(hb / (ha * hc * hd)),
            c=math.sqrt(hc / (ha * hb * hd)),
            d=math.sqrt(hd / (ha * hb * hc)),
        )
    except ZeroDivisionError:  # a product of three coordinates underflows to 0.0
        raise DomainError("horocyclic coordinates out of range: "
                          "a product of three underflows") from None


class DomainCheck(NamedTuple):
    inside: bool
    walls: tuple[bool, bool, bool, bool]


def in_fundamental_domain(h: HorocyclicCoords, tol: float = DEFAULT_TOL) -> DomainCheck:
    """True iff every coordinate is <= 1/2 + tol; flags coordinates
    within tol of the 1/2 walls."""
    _tol(tol)  # a NaN would put every point outside
    vals = h.values()
    return DomainCheck(
        inside=all(v <= 0.5 + tol for v in vals),
        walls=tuple(abs(v - 0.5) <= tol for v in vals),
    )


_PERMUTATIONS = {
    "phi1": (1, 0, 3, 2),  # (a,b,c,d) -> (b,a,d,c)
    "phi2": (2, 3, 0, 1),  # (a,b,c,d) -> (c,d,a,b)
    "phi3": (3, 2, 1, 0),  # (a,b,c,d) -> (d,c,b,a)
}


def mcg_apply(word, q: MarkoffQuad | IntegerQuad) -> MarkoffQuad | IntegerQuad:
    """Apply a mapping class word, letters acting right-to-left.
    Letters: f1..f4 (flips) and phi1..phi3 (permutations).  The result
    has q's type, so an IntegerQuad stays exact."""
    letters = list(word)
    for letter in reversed(letters):
        if letter in _PERMUTATIONS:
            perm = _PERMUTATIONS[letter]
            vals = q.values()
            q = q._make(vals[p] for p in perm)
        elif letter in ("f1", "f2", "f3", "f4"):
            q = flip(q, int(letter[1]))
        else:
            raise DomainError(f"unknown mapping class letter {letter!r}")
    return q


def sample_horocyclic(rng: random.Random) -> HorocyclicCoords:
    """Uniform (Dirichlet) sample of the open simplex, rejecting points
    within 1e-6 of its boundary.  This is the canonical random positive
    quad generator used by the test suites."""
    while True:
        draws = [-math.log(rng.random()) for _ in range(4)]
        s = sum(draws)
        vals = [x / s for x in draws]
        if min(vals) > _WALL_MARGIN:
            return HorocyclicCoords(*vals)


def sample_fuchsian_quad(rng: random.Random) -> MarkoffQuad:
    return horocyclic_to_quad(sample_horocyclic(rng))


class McgRelationsReport(NamedTuple):
    samples: int
    deviations: dict[str, float]

    @property
    def max_deviation(self) -> float:
        return max(self.deviations.values())

    @property
    def ok(self) -> bool:
        return self.max_deviation <= 1e-9


_RELATIONS = (
    ("f1 f1", ""), ("f2 f2", ""), ("f3 f3", ""), ("f4 f4", ""),
    ("phi1 phi1", ""), ("phi2 phi2", ""),
    ("phi1 phi2", "phi2 phi1"),
    ("phi1 phi2", "phi3"),
    ("phi1 f1 phi1", "f2"),
    ("phi2 f1 phi2", "f3"),
    ("phi1 f3 phi1", "f4"),
)


def mcg_relations_check(
    sample_count: int,
    rng: random.Random | None = None,
) -> McgRelationsReport:
    """Verify the presentation relations as equalities of induced maps
    on random positive quads; reports the max relative deviation per
    relation, and `ok` means every deviation is at most 1e-9.  phi1 and
    phi2 are involutions, so the conjugation relations need no explicit
    inverses."""
    if sample_count < 1:
        raise DomainError("sample_count must be >= 1")
    if rng is None:
        import random  # only here; keeps it out of every `mql` start-up
        rng = random.Random(0)
    quads = [sample_fuchsian_quad(rng) for _ in range(sample_count)]
    deviations: dict[str, float] = {}
    for lhs, rhs in _RELATIONS:
        worst = 0.0
        for q in quads:
            left = mcg_apply(lhs.split(), q)
            right = mcg_apply(rhs.split(), q) if rhs else q
            for x, y in zip(left.values(), right.values()):
                worst = max(worst, abs(x - y) / max(1.0, abs(y)))
        deviations[f"{lhs} = {rhs or 'id'}"] = worst
    return McgRelationsReport(samples=sample_count, deviations=deviations)
