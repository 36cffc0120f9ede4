"""Identity sums over two-sided simple curve classes.

For well-behaved quads (every face product bounded set is finite and no
face product lies in [0, 4]) the series

    sum over faces of h(a*b),   h(x) = (1 - sqrt(1 - 4/x)) / 2,

converges to 1/2; via the face relation e = ab - 2 each term equals
1/(1 + exp(l/2)) for the two-sided geodesic of length l.  This module
has the h and psi building blocks, the summability check, partial sums
with a tail heuristic, and the finite-subtree identity for psi.
"""

from __future__ import annotations

import cmath
import enum
import math
from typing import NamedTuple

from .curvecomplex import DEFAULT_MAX_CELLS, Face, walk
from .errors import BqViolationError, BranchCutError, DomainError, InvalidQuadError
from .quadalgebra import (BRANCH_TOL, DEFAULT_TOL, IntegerQuad, MarkoffQuad, _segment_distance,
                          _tol, flip_value, reduce_to_sink)


def h(x) -> complex:
    """h(x) = (1 - sqrt(1 - 4/x)) / 2 on the plane cut along [0, 4].

    Inputs within BRANCH_TOL of the cut are rejected rather than
    silently branch-picked, as two_sided_length rejects x - 2 near
    [-2, 2].  For large |x| the algebraically identical
    form 2 / (x (1 + sqrt(1 - 4/x))) avoids cancellation.  x is boxed
    into a complex first, so an exact walk's int products sum as floats.

    The distance to the cut is not computed when |x| > 8: every point of
    [0, 4] has modulus <= 4, so x then lies more than 4 from the cut and
    the test would pass.  An infinite part makes |x| infinite, so the
    test is skipped where it would pass; a NaN part with no infinite one
    makes |x| NaN, which fails |x| > 8, so the test runs.  Finite parts
    whose modulus is past the float range raise DomainError.
    """
    x = complex(x)
    try:
        ax = abs(x)
    except OverflowError:
        raise DomainError(f"modulus of {x} out of float range") from None
    if not ax > 8.0 and _segment_distance(x, 0.0, 4.0) <= BRANCH_TOL:
        raise BranchCutError(f"{x} within {BRANCH_TOL:g} of the cut [0,4]")
    s = cmath.sqrt(1 - 4 / x)
    if ax > 8:
        return 2 / (x * (1 + s))
    return (1 - s) / 2


def _psi_values(values, i: int) -> tuple[complex, complex]:
    total = values[0] + values[1] + values[2] + values[3]
    x, y, z = (v for j, v in enumerate(values) if j != i - 1)
    prod = x * y * z
    if total == 0 or prod == 0:
        raise DomainError("psi undefined: zero entry sum or zero slot product")
    return values[i - 1] / total, total / prod


def psi(q: MarkoffQuad, i: int, tol: float = DEFAULT_TOL) -> complex:
    """Weight of the oriented edge pointing into entry i (1..4):
    q_i / (a+b+c+d), equal to (a+b+c+d) / (product of the others) by the
    vertex relation.  Disagreement of the two forms beyond tol means the
    input is not a quad."""
    if i not in (1, 2, 3, 4):
        raise DomainError(f"entry index must be 1..4, got {i}")
    first, second = _psi_values(q.values(), i)
    if not abs(first - second) <= max(1.0, abs(first)) * _tol(tol):
        raise InvalidQuadError(
            f"psi forms disagree by {abs(first - second):.3e}; quad relation broken"
        )
    return first


class BqReport(NamedTuple):
    """Outcome of the summability check at cutoff k."""

    cutoff: float
    faces4: tuple[Face, ...]          # faces with |product| <= 4
    violations: tuple[Face, ...]      # faces with product within BRANCH_TOL of [0, 4]
    cells_below2: int
    budget_hit: bool

    @property
    def ok(self) -> bool:
        return not self.violations and not self.budget_hit


def check_bq(
    q: MarkoffQuad | IntegerQuad,
    k: float = 4.0,
    max_cells: int = DEFAULT_MAX_CELLS,
    tol: float = DEFAULT_TOL,
) -> BqReport:
    """Enumerate faces with |product| <= max(k, 4) + BRANCH_TOL and
    report any whose product lies within BRANCH_TOL of the segment
    [0, 4], which h rejects, so a face just past 4 is reported too; tol
    is the tolerance of the quad relation check.  The report's cutoff is
    max(k, 4).  A violation with |product| <= 4 is the same Face object
    as in faces4.  The walk starts at q itself, so cell ids are relative
    to q, and an IntegerQuad is walked exactly, so its products are
    ints.  Finiteness cannot be certified from finite data, only
    refuted, and a violation found at one max_cells stands at every
    larger one (`walk`); a walk that runs out of budget sets budget_hit."""
    bound = max(k, 4.0)
    w = walk(q, face_bound=bound + BRANCH_TOL, max_cells=max_cells, tol=tol)
    faces = w.faces
    faces4, violations = [], []
    for key in sorted(faces):
        p = faces[key]
        a = abs(p)
        if a > 8.0:  # more than 4 from the cut, as in h
            continue
        f = Face(key, p)
        if a <= 4.0:
            faces4.append(f)
        if _segment_distance(p, 0.0, 4.0) <= BRANCH_TOL:
            violations.append(f)
    below2 = sum(1 for v in w.values if abs(v) <= 2.0)
    return BqReport(cutoff=bound, faces4=tuple(faces4), violations=tuple(violations),
                    cells_below2=below2, budget_hit=w.budget_hit)


class Verdict(str, enum.Enum):
    CONVERGED = "converged"
    BUDGET_EXCEEDED = "budget-exceeded"
    PARTIAL = "partial"


class McShaneReport(NamedTuple):
    partial_sum: complex
    term_count: int
    product_cutoff: float
    last_shell_max: float
    verdict: Verdict


def _summable_sink(q, max_cells, tol):
    """q's sink, in q's type, from which every walk of a sum starts.
    The descent validates q and runs first, so a quad with no sink
    raises before any walk.  Then raise BqViolationError, once per sum
    as no cutoff changes it, if check_bq(sink, 4.0, max_cells) has a
    violation, walked at budgets 4, 16, ... (at most max_cells / 4) and
    max_cells up to the first walk with one or that is complete.  By
    `walk`'s prefix property that is the full walk's decision; only a
    deep violation's message may name a face other than its lowest.
    The 4-cell walk holds the sink's six faces, in id-pair order.  With
    no witness the shorter walks cost at most a third of the full one."""
    sink = reduce_to_sink(q, tol=tol)[0]
    n = 4
    while True:
        bq = check_bq(sink, 4.0, max_cells=n, tol=tol)
        if bq.violations:
            p = bq.violations[0].product
            raise BqViolationError(f"face product {p} lies in [0,4]; sum undefined")
        if not bq.budget_hit or n >= max_cells:
            return sink
        n = 4 * n if 16 * n <= max_cells else max_cells


def _partial(sink, product_cutoff, max_cells, tol, target_tol):
    """The report of one walk from sink, read in one pass over its faces
    in discovery order.  Each face's term h(p) is cross-checked, when
    target_tol is given, against the geometric form 1/(1 + exp(l/2))
    with l from the face relation, to 1e-10, and then counts towards the
    last shell's maximum.  The real and imaginary parts are summed with
    math.fsum, correctly rounded, so the sum does not depend on the
    order of the terms, and every root with this sink gives the same
    terms."""
    w = walk(sink, face_bound=product_cutoff, max_cells=max_cells, tol=tol)
    shell = product_cutoff / 2
    shell_max = 0.0
    reals, imags = [], []
    # the walk records only faces within the cutoff
    for pair, p in w.faces.items():
        term = h(p)
        if target_tol is not None:
            ell = 2 * cmath.acosh((p - 2) / 2)
            geom = 1 / (1 + cmath.exp(ell / 2))
            if abs(term - geom) > _CROSS_CHECK_TOL:
                raise InvalidQuadError(
                    f"h and geometric forms disagree at face {pair}: "
                    f"{abs(term - geom):.3e}"
                )
        if abs(p) > shell:
            shell_max = max(shell_max, abs(term))
        reals.append(term.real)
        imags.append(term.imag)
    total = complex(math.fsum(reals), math.fsum(imags))
    if w.budget_hit:
        verdict = Verdict.BUDGET_EXCEEDED
    elif target_tol is not None and abs(total - 0.5) <= target_tol \
            and shell_max <= target_tol / 10:
        verdict = Verdict.CONVERGED
    else:
        verdict = Verdict.PARTIAL
    return McShaneReport(partial_sum=total, term_count=len(reals),
                         product_cutoff=product_cutoff,
                         last_shell_max=shell_max, verdict=verdict)


def mcshane_partial(
    q: MarkoffQuad | IntegerQuad,
    product_cutoff: float,
    max_cells: int = DEFAULT_MAX_CELLS,
    tol: float = DEFAULT_TOL,
) -> McShaneReport:
    """Sum h over all distinct faces with |product| <= product_cutoff.

    last_shell_max is the largest |h| among faces in the final dyadic
    shell (cutoff/2, cutoff]: a heuristic tail indicator, since no
    computable tail bound is available.  The verdict is PARTIAL, or
    BUDGET_EXCEEDED when the walk ran out of cells; mcshane_verify
    decides convergence.

    The summability check and the sum both walk from q's sink, and the
    terms are summed with math.fsum: the sum of the whole tree does not
    depend on the vertex it starts from, and neither does this partial
    sum.  An IntegerQuad descends and is walked exactly.  A quad with no
    sink within the descent's step cap raises BudgetExceededError before
    any walk.  The summability check stops at its first witness.
    """
    sink = _summable_sink(q, max_cells, tol)
    return _partial(sink, product_cutoff, max_cells, tol, None)


DEFAULT_SCHEDULE = (1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8)
_CROSS_CHECK_TOL = 1e-10


def mcshane_verify(
    q: MarkoffQuad | IntegerQuad,
    target_tol: float,
    max_cells: int = DEFAULT_MAX_CELLS,
    tol: float = DEFAULT_TOL,
) -> tuple[bool, McShaneReport]:
    """Raise the cutoff along DEFAULT_SCHEDULE until the partial sum is
    within target_tol of 1/2 (with a quiet last shell) or the budget is
    exhausted.  Each step sums from q's sink, as mcshane_partial does,
    and cross-checks every term against its geometric form
    1/(1 + exp(l/2)), to 1e-10, in the same pass over the faces."""
    if not target_tol > 0:  # NaN too
        raise DomainError("target_tol must be positive")
    sink = _summable_sink(q, max_cells, tol)
    for cutoff in DEFAULT_SCHEDULE:
        report = _partial(sink, cutoff, max_cells, tol, target_tol)
        if report.verdict is not Verdict.PARTIAL:
            break
    return report.verdict is Verdict.CONVERGED, report


def finite_tree_psi_sum(q: MarkoffQuad, tree, tol: float = DEFAULT_TOL) -> complex:
    """Sum psi over all oriented edges pointing into a finite subtree
    from outside; the total is 1 for any such subtree.

    Vertices are given as flip words from the root: the empty word must
    be present, every word's parent prefix must be present, and words
    must not backtrack (w[k] != w[k+1]).
    """
    q.require_valid(tol)
    words = {tuple(w) for w in tree}
    if () not in words:
        raise DomainError("subtree must contain the root (empty word)")
    values = {(): q.values()}
    for w in sorted(words, key=len):
        if not w:
            continue
        if w[:-1] not in words:
            raise DomainError(f"subtree is not connected: {w} lacks its parent")
        if len(w) >= 2 and w[-1] == w[-2]:
            raise DomainError(f"word {w} backtracks; vertices must be reduced words")
        parent = values[w[:-1]]
        vals = list(parent)
        i = w[-1]
        vals[i - 1] = flip_value(parent, i)
        values[w] = tuple(vals)
    total = 0j
    for w in words:
        for i in range(1, 5):
            neighbor = w[:-1] if (w and w[-1] == i) else w + (i,)
            if neighbor not in words:
                total += _psi_values(values[w], i)[0]
    return total
