"""Exact arithmetic on positive integer Markoff quads.

Everything here is plain Python int (arbitrary precision); no floating
point.  Flips of positive integer quads stay positive and integral: the
replaced entry and its substitute multiply to (sum of the other three)^2.
The quad type, IntegerQuad, its flip and its descent to the sink live
in quadalgebra beside MarkoffQuad; this module classifies and enumerates
integer quads.
"""

from __future__ import annotations

from collections import deque
from math import isqrt

from .errors import BudgetExceededError, DomainError, InvalidQuadError
from .quadalgebra import DEFAULT_MAX_CELLS, IntegerQuad, flips, reduce_to_sink


# Search box from the reduction argument: after sorting, the largest
# entry is at most the sum of the others, forcing a <= 4 (proved in
# spectra.systole's docstring) and 5 <= ab <= 36; bounding
# (a+b+2d)^2 >= ab_min (d - a - b_max) d then caps d per value of a.
# Per a: (b_min, b_max, d_max).
SEARCH_BOUNDS = {
    1: (5, 36, 337),
    2: (3, 18, 101),
    3: (3, 12, 40),
    4: (4, 9, 26),
}


def _in_search_box(a: int, b: int, c: int, d: int) -> bool:
    """Whether the ascending entries lie in the SEARCH_BOUNDS box: a is
    a key, max(a, b_min) <= b <= b_max, b <= d <= d_max and
    max(b, d - a - b) <= c <= d."""
    bounds = SEARCH_BOUNDS.get(a)
    if bounds is None:
        return False
    blo, bhi, dmax = bounds
    return max(a, blo) <= b <= bhi and b <= d <= dmax and max(b, d - a - b) <= c <= d


def enumerate_fundamental() -> list[IntegerQuad]:
    """All reduced positive integer quads, by exhaustive search over the
    reduction bounds.

    The search walks every a <= b <= d of the SEARCH_BOUNDS box and
    solves the relation, a quadratic in c, exactly: an integer square
    root of its discriminant gives its smaller root, the only candidate,
    kept when it lies in the box's range max(b, d - a - b) <= c <= d.

    It returns nine quads.  Besides the classical eight it finds
    (2, 4, 6, 12): a valid solution (24^2 = 576 = 2*4*6*12) that is
    flip-rigid (the largest entry's flip is a self-flip, every other
    flip increases), hence reduced, and whose flip orbit is disjoint
    from the other roots'.
    """
    # For fixed (a, b, d), with s = a+b+d and p = abd, the relation is
    # c^2 - (p - 2s)c + s^2 = 0 with discriminant p(p - 4s), so every
    # integer c of the box is a root (p - 2s -+ r)/2.  The roots multiply
    # to s^2, so the larger one is at least s > d and only the smaller
    # can lie in the box; r^2 = p^2 - 4ps forces r = p (mod 2), so its
    # numerator is even and the division exact.
    found = []
    for a, (blo, bhi, dmax) in SEARCH_BOUNDS.items():
        for b in range(max(a, blo), bhi + 1):
            for d in range(b, dmax + 1):
                s = a + b + d
                p = a * b * d
                disc = p * (p - 4 * s)
                if disc < 0:
                    continue
                r = isqrt(disc)
                if r * r != disc:
                    continue
                c = (p - 2 * s - r) // 2
                if _in_search_box(a, b, c, d):
                    found.append((a, b, c, d))
    return [IntegerQuad.from_values(v) for v in sorted(found)]


def classify(q: IntegerQuad) -> tuple[IntegerQuad, list[int]]:
    """Reduce (`reduce_to_sink`, exact here) and match against the
    fundamental table; returns the root, ascending, and the flip word
    taken.  A reduced quad outside the table means the input was not a
    positive integer quad.

    The reduced quad is valid and ascending, and the search keeps every
    such quad of the SEARCH_BOUNDS box (of the two roots in c only the
    smaller can lie in it), so membership is the box test alone; the
    search itself is not run."""
    if min(q) <= 0:
        raise DomainError("reduction needs all entries positive")
    sink, word = reduce_to_sink(q)
    reduced = IntegerQuad.from_values(sorted(sink))
    if not _in_search_box(*reduced):
        raise InvalidQuadError(f"reduced form {reduced.values()} is not a fundamental quad")
    return reduced, word


def enumerate_integral_below(B: int, max_cells: int = DEFAULT_MAX_CELLS) -> list[IntegerQuad]:
    """Every positive integer quad with max entry <= B, each as an
    IntegerQuad with ascending entries, the list in sorted order; found
    by breadth-first closure from the fundamental roots along ascending
    flips only, those whose new entry exceeds the old.  More than
    max_cells distinct quads raise BudgetExceededError; B below 4, or
    NaN, raises DomainError.

    Why ascending flips suffice: take a positive ascending quad
    (a, b, c, d).  Flipping an entry x other than the last gives
    x * x' = s^2, where s, the sum of the other three, includes d and so
    exceeds it; hence x' > d^2 / x >= d.  So those three flips ascend,
    and their child, the other three entries followed by x', is
    ascending with no sort.  The flip of d gives d * d' = (a + b + c)^2;
    it descends where d > a + b + c, and a quad with no descending flip
    is reduced, a root.  So every quad but a root has exactly one
    descending flip, to its parent, and the parent's flip back to it
    ascends: the ascending flips from the roots reach every quad, and a
    descending flip or a self-flip only finds a quad already found.  The
    walk keeps `seen`, since two equal entries give the same child.  It
    adds the quads in the order that a closure along all four flips
    would, so the budget runs out at the same quad.
    """
    if not B >= 4:  # NaN too
        raise DomainError("need B >= 4 (the smallest quad is (4,4,4,4))")
    seen: set[tuple[int, int, int, int]] = set()
    queue = deque()

    def add(canon):
        if len(seen) >= max_cells:
            raise BudgetExceededError(
                f"cell budget {max_cells} exhausted before every integer quad below B was found"
            )
        seen.add(canon)
        queue.append(canon)

    for root in enumerate_fundamental():  # ascending, and distinct
        if root.d <= B:
            add(tuple(root))
    while queue:
        vals = queue.popleft()
        for i, v in enumerate(flips(*vals)):
            if vals[i] < v <= B:
                child = vals[:i] + vals[i + 1:] + (v,)
                if child not in seen:
                    add(child)
    return [IntegerQuad(*v) for v in sorted(seen)]
