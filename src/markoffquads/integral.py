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
from .quadalgebra import DEFAULT_MAX_CELLS, IntegerQuad, reduce_to_sink


def _c_max(a: int, b: int) -> int:
    """The largest integer c with ab c^2 <= 4(a+b+c)^2, for ab > 4.

    With s = a + b the condition is c (sqrt(ab) - 2) <= 2s, so c is at
    most 2s / (sqrt(ab) - 2) = (4s + 2s sqrt(ab)) / (ab - 4).  Its floor
    is exact in ints: 2s sqrt(ab) may be replaced by its floor
    isqrt(4 s^2 ab), since 4s is an integer and ab - 4 a positive one."""
    s = a + b
    ab = a * b
    return (4 * s + isqrt(4 * s * s * ab)) // (ab - 4)


def _in_search_box(a: int, b: int, c: int, d: int) -> bool:
    """Whether the ascending entries meet the bounds that
    enumerate_fundamental proves for a reduced quad: a <= 4, ab > 4,
    b <= c <= c_max(a, b), c <= d and d <= a + b + c (these imply
    ab <= 36)."""
    return a <= 4 and a * b > 4 and b <= c <= min(d, _c_max(a, b)) and d <= a + b + c


def enumerate_fundamental() -> list[IntegerQuad]:
    """All reduced positive integer quads, by exhaustive search over the
    bounds that reduction proves.

    A reduced quad, sorted a <= b <= c <= d, has d <= a + b + c, the
    sink condition, and so:
    - a <= 4, proved in spectra.systole's docstring;
    - ab > 4: with ab <= 4, (a+b+c+d)^2 > (c+d)^2 >= 4cd >= abcd, so no
      positive quad has it;
    - c <= c_max(a, b), the largest integer c with ab c^2 <= 4(a+b+c)^2,
      since ab c^2 <= abcd = (a+b+c+d)^2 <= 4(a+b+c)^2;
    - ab <= 36, since ab c^2 <= 4(a+b+c)^2 <= 36 c^2 as a, b <= c.

    The search walks every (a, b) these allow, skips a row with
    c_max < b, and runs d from b to a + b + c_max: 499 triples (a, b, d)
    in all.  It solves the relation, a quadratic in c, exactly: an
    integer square root of its discriminant gives its smaller root, the
    only candidate, kept when it meets the bounds (_in_search_box).

    It returns nine quads.  Besides the classical eight it finds
    (2, 4, 6, 12): a valid solution (24^2 = 576 = 2*4*6*12) that is
    flip-rigid (the largest entry's flip is a self-flip, every other
    flip increases), hence reduced, and whose flip orbit is disjoint
    from the other roots'.
    """
    # For fixed (a, b, d), with s = a+b+d and p = abd, the relation is
    # c^2 - (p - 2s)c + s^2 = 0 with discriminant p(p - 4s), so every
    # integer solution c is a root (p - 2s -+ r)/2.  The roots multiply
    # to s^2, so the larger one is at least s > d and only the smaller
    # can meet c <= d; r^2 = p^2 - 4ps forces r = p (mod 2), so its
    # numerator is even and the division exact.
    found = []
    for a in range(1, 5):
        for b in range(max(a, 4 // a + 1), 36 // a + 1):
            cm = _c_max(a, b)
            if cm < b:
                continue
            for d in range(b, a + b + cm + 1):
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

    The reduced quad is valid, ascending and a sink, and the search
    keeps every such quad that meets its bounds (of the two roots in c
    only the smaller can meet them), so membership is the bounds test
    alone; the search itself is not run."""
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
    would, so the budget runs out at the same quad; the test before each
    pop sees it spent at the vertex that added the quad past it.

    The loop writes the flips out with shared products: with
    t2 = 2(a+b+c+d), the flip of a, bcd - 2(b+c+d) - a, is
    b*cd - t2 + a, and likewise for the others.  Int arithmetic is exact
    and associative, so these are `flips`' values; a float walk would
    have to keep `flips`' operation order.  The first three flips ascend
    (above), so only the last is tested against its old entry.
    """
    if not B >= 4:  # NaN too
        raise DomainError("need B >= 4 (the smallest quad is (4,4,4,4))")
    seen: set[tuple[int, int, int, int]] = set()
    queue = deque(tuple(root) for root in enumerate_fundamental() if root.d <= B)
    seen.update(queue)  # the roots are ascending, and distinct
    push, pop = queue.append, queue.popleft
    while queue:
        if len(seen) > max_cells:
            raise BudgetExceededError(
                f"cell budget {max_cells} exhausted before every integer quad below B was found"
            )
        a, b, c, d = pop()
        ab = a * b
        cd = c * d
        t2 = 2 * (a + b + c + d)
        v = b * cd - t2 + a
        if v <= B:
            child = (b, c, d, v)
            if child not in seen:
                seen.add(child)
                push(child)
        v = a * cd - t2 + b
        if v <= B:
            child = (a, c, d, v)
            if child not in seen:
                seen.add(child)
                push(child)
        v = ab * d - t2 + c
        if v <= B:
            child = (a, b, d, v)
            if child not in seen:
                seen.add(child)
                push(child)
        v = ab * c - t2 + d
        if d < v <= B:
            child = (a, b, c, v)
            if child not in seen:
                seen.add(child)
                push(child)
    return [IntegerQuad(*v) for v in sorted(seen)]
