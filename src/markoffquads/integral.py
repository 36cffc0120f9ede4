"""Exact arithmetic on positive integer Markoff quads.

Everything here is plain Python int (arbitrary precision); no floating
point.  Flips of positive integer quads stay positive and integral: the
replaced entry and its substitute multiply to (sum of the other three)^2.
The quad type, IntegerQuad, its flip and its descent to the sink live
in quadalgebra beside MarkoffQuad; this module classifies and enumerates
integer quads.
"""

from __future__ import annotations

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
    by a walk of the tree that the ascending flips, those whose new
    entry exceeds the old, make on the quads, from the fundamental
    roots.  More than max_cells distinct quads raise
    BudgetExceededError; B below 4, or NaN, and a NaN max_cells raise
    DomainError.

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
    descending flip or a self-flip only finds a quad already found.
    Slots 1 to 3 always ascend, so the one descending flip of a quad but
    a root is in slot 4, and only a root can ascend there: the list
    starts with the roots and their ascending slot-4 children, and the
    loop flips slots 1 to 3 alone.

    Why each quad is made once, with no set of the quads seen: parents
    are unique, so two vertices never make the same child, and no vertex
    makes a root.  At one vertex the children of slots i < j are the
    same quad exactly when x_i = x_j: the three entries left in place
    then agree, and so does the flip, x' = s^2 / x with s the sum of the
    other three; with distinct entries the entries left in place differ.
    The entries are ascending, so equal ones are neighbours, and the
    walk skips slot 2 when a = b, slot 3 when b = c and a root's slot 4
    when c = d: each child comes from the first slot that makes it.  The
    list `found` is then both the record and the queue: the loop visits
    each quad once, in discovery order, while the quads it appends
    extend it.

    The slot order: with t2 = 2(a+b+c+d), the flip of a,
    bcd - 2(b+c+d) - a, is v1 = b*cd - t2 + a, and likewise v2 and v3
    for b and c.  Then v1 - v2 = (b - a)(cd - 1) and
    v2 - v3 = (c - b)(ad - 1), both >= 0 on a positive ascending quad,
    so v1 >= v2 >= v3.  The loop computes v3 first, v2 only when v3 <= B
    and v1 only when v2 <= B, and still appends the children in slot
    order 1 to 3.  Int arithmetic is exact and associative, so these are
    `flips`' values; a float walk would have to keep `flips`' operation
    order.

    The budget: every quad is appended before it is visited, and the
    test runs before every visit, so the function raises exactly when
    more than max_cells quads lie at or below B.
    """
    if not B >= 4:  # NaN too
        raise DomainError("need B >= 4 (the smallest quad is (4,4,4,4))")
    if max_cells != max_cells:  # a NaN budget would bound nothing
        raise DomainError("max_cells must not be NaN")
    roots = [tuple(root) for root in enumerate_fundamental() if root.d <= B]
    found = roots + [(a, b, c, v4) for a, b, c, d in roots
                     if c != d and d < (v4 := a * b * c - 2 * (a + b + c) - d) <= B]
    push = found.append
    for a, b, c, d in found:
        if len(found) > max_cells:
            raise BudgetExceededError(
                f"cell budget {max_cells} exhausted before every integer quad below B was found"
            )
        cd = c * d
        t2 = 2 * (a + b + c + d)
        v3 = a * b * d - t2 + c
        if v3 <= B:
            v2 = a * cd - t2 + b
            if v2 <= B:
                v1 = b * cd - t2 + a
                if v1 <= B:
                    push((b, c, d, v1))
                if a != b:
                    push((a, c, d, v2))
            if b != c:
                push((a, b, d, v3))
    return [IntegerQuad(*v) for v in sorted(found)]
