"""Simple length spectra, counting function and growth-exponent fit.

One-sided classes come from cells of the quad tree (trace = 2 sinh(l/2)),
two-sided classes from faces via e = ab - 2 (trace = 2 cosh(l/2)).
Quasi-Fuchsian ordering and cutoffs use |l|.  Each walk starts from the
sink of a quad of either type, in the quad's own arithmetic: an
IntegerQuad descends and is walked exactly, so its traces are ints.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_left
from typing import TYPE_CHECKING, NamedTuple

from .curvecomplex import DEFAULT_MAX_CELLS, Walk, walk
from .errors import BudgetExceededError, DomainError
from .quadalgebra import DEFAULT_TOL, one_sided_length, reduce_to_sink, two_sided_length

if TYPE_CHECKING:  # annotations only: no quad is built here, each walk starts at q's sink
    from .quadalgebra import IntegerQuad, MarkoffQuad


class CurveKind(str, enum.Enum):
    ONE_SIDED = "one-sided"
    TWO_SIDED = "two-sided"


class SpectrumEntry(NamedTuple):
    """One simple closed curve class, with its trace, complex length
    (principal branch, Re >= 0), owning cell id (or id pair) and the
    discovery word in the reduced tree."""

    kind: CurveKind
    trace: complex | float | int
    length: complex
    cell_ref: int | tuple[int, int]
    word: tuple[int, ...] | None


def _trace_bound(fn, L: float) -> float:
    """2 fn(L/2), the trace bound of cutoff L.  A bound that is not
    finite raises DomainError: no budget would end the walk to it."""
    try:
        bound = 2.0 * fn(L / 2)
    except OverflowError:
        raise DomainError(f"cutoff L={L!r} is out of range: its trace bound overflows") from None
    if not math.isfinite(bound):  # an infinite or NaN cutoff
        raise DomainError(f"cutoff L={L!r} is out of range: its trace bound is {bound!r}")
    return bound


def _require_complete(w: Walk, max_cells: int) -> None:
    """Raise BudgetExceededError if w ran out of cells: a spectrum, a
    count or a systole read from a cut-short walk could miss classes.

    The message says what the cut means.  Each walk here starts at a
    sink, under finite bounds.  A walk in ints (an exact walk) or in
    floats (the Fuchsian-sink path) starts at a positive sink, from which
    every flip ascends (`walk`'s docstring), so it is finite at every
    bound and only the budget was too small; the message gives the cells
    made and the vertices still queued.  A complex walk may never end."""
    if w.budget_hit:
        if type(w.values[0]) is complex:
            raise BudgetExceededError(
                f"cell budget {max_cells} exhausted; suspected non-summable input")
        cells = len(w.values)
        raise BudgetExceededError(
            f"cell budget {max_cells} exhausted; the walk is finite but the budget too small"
            f" ({cells} cells made, {cells - 3 - w.nodes_visited} vertices still queued)")


# The private passes below compute each length once and return, in
# discovery order, tuples that lead with the spectrum's sort key.  The
# cell ids and id pairs are unique, so sorting the tuples never compares
# the complex values behind the key.

def _word_texts(w: Walk) -> list[str]:
    """Every cell's flip word as text, in id order: "4,3,1" for the word
    (4, 3, 1), "" for a root cell.  Each extends its parent's by ",d"; a
    child of the root is "d" alone.

    Sorting by text gives the order of sorting by word.  Each slot is one
    digit 1..4, so the texts of two words agree up to the first slot in
    which the words differ and there hold the digits of the two slots,
    which compare as the slots do; a word that is a prefix of the other
    gives a text that is a prefix of the other's, and sorts first, as
    the shorter tuple does."""
    parents, slots = w.parents, w.slots
    digits, tails = "01234", ("", ",1", ",2", ",3", ",4")
    texts = [""] * 4
    add = texts.append
    for k in range(4, len(parents)):
        p = parents[k]
        add(texts[p] + tails[slots[k]] if p else digits[slots[k]])
    return texts


def _one_sided_walk(q, L, max_cells, tol) -> tuple[Walk, float]:
    """A complete walk from q's sink to the trace bound of L, and that
    bound: the walk holds every one-sided class with |l| < L."""
    sink = reduce_to_sink(q, tol=tol)[0]
    bound = _trace_bound(math.sinh, L)
    for v in sink.values():
        if v == 0:  # a parabolic class within every bound: raise before the walk
            one_sided_length(v)
    w = walk(sink, cell_bound=bound, max_cells=max_cells, tol=tol)
    _require_complete(w, max_cells)
    return w, bound


def _one_sided_lengths(q, L, max_cells, tol) -> list[float]:
    """|l| of every one-sided class with |l| < L, in id order."""
    if L <= 0:
        return []
    w, bound = _one_sided_walk(q, L, max_cells, tol)
    # zero trace raises: parabolic class
    lengths = [abs(one_sided_length(value)) for value in w.values if abs(value) <= bound]
    return [a for a in lengths if a < L]


def _one_sided_rows(w: Walk, bound, L, words) -> list[tuple]:
    """(|l|, words[id], id, trace, l) for every cell of w with
    |trace| <= bound and |l| < L."""
    rows = []
    for cid, value in enumerate(w.values):
        if abs(value) <= bound:
            ell = one_sided_length(value)  # zero trace raises: parabolic class
            a = abs(ell)
            if a < L:
                rows.append((a, words[cid], cid, value, ell))
    return rows


def _two_sided_rows(faces, L) -> list[tuple]:
    """(|l|, None, id pair, trace, l) for every face with |l| < L: a
    two-sided class has no word."""
    rows = []
    for pair in sorted(faces):  # id-pair order decides which degenerate face raises
        e = faces[pair] - 2
        ell = two_sided_length(e)
        a = abs(ell)
        if a < L:
            rows.append((a, None, pair, e, ell))
    return rows


def _spectrum_rows(q, L, kind: CurveKind, max_cells, tol, texts=False) -> list[tuple]:
    """The classes of kind with |l| < L, as `one_sided_spectrum` and
    `two_sided_spectrum` find them, in rows (|l|, word, ref, trace, l)
    sorted by |l|, then word, then cell id or id pair.  A two-sided
    row's word is None; a one-sided word is a tuple of slots, or with
    texts its `_word_texts` text, which sorts the same."""
    if L <= 0:
        return []
    if kind is CurveKind.ONE_SIDED:
        w, bound = _one_sided_walk(q, L, max_cells, tol)
        rows = _one_sided_rows(w, bound, L, _word_texts(w) if texts else w.words())
    else:
        sink = reduce_to_sink(q, tol=tol)[0]
        product_bound = _trace_bound(math.cosh, L) + 2.0
        # the sink's six faces, in id-pair order: a degenerate one raises before the walk
        vals = sink.values()
        for p in [vals[i] * vals[j] for i in range(4) for j in range(i + 1, 4)]:
            if abs(p) <= product_bound:
                two_sided_length(p - 2)
        w = walk(sink, face_bound=product_bound, max_cells=max_cells, tol=tol)
        _require_complete(w, max_cells)
        rows = _two_sided_rows(w.faces, L)
    rows.sort()
    return rows


def one_sided_spectrum(
    q: MarkoffQuad | IntegerQuad,
    L: float,
    max_cells: int = DEFAULT_MAX_CELLS,
    tol: float = DEFAULT_TOL,
) -> list[SpectrumEntry]:
    """All one-sided classes with |length| < L, sorted by |length|, then
    discovery word, then cell id.  The quad is reduced first; since
    |2 sinh(z/2)| <= 2 sinh(|z|/2), enumerating traces up to 2 sinh(L/2)
    is complete."""
    kind = CurveKind.ONE_SIDED
    return [SpectrumEntry(kind, trace, ell, cid, word)
            for _, word, cid, trace, ell in _spectrum_rows(q, L, kind, max_cells, tol)]


def two_sided_spectrum(
    q: MarkoffQuad | IntegerQuad,
    L: float,
    max_cells: int = DEFAULT_MAX_CELLS,
    tol: float = DEFAULT_TOL,
) -> list[SpectrumEntry]:
    """All two-sided classes with |length| < L, deduplicated by cell id
    pair and sorted by |length|, then id pair.  |e| = |2 cosh(l/2)| <=
    2 cosh(|l|/2) bounds the face product by 2 cosh(L/2) + 2."""
    kind = CurveKind.TWO_SIDED
    return [SpectrumEntry(kind, trace, ell, pair, None)
            for _, _, pair, trace, ell in _spectrum_rows(q, L, kind, max_cells, tol)]


def count_s(
    q: MarkoffQuad | IntegerQuad,
    L: float,
    max_cells: int = DEFAULT_MAX_CELLS,
    tol: float = DEFAULT_TOL,
) -> int:
    """Number of one-sided classes with |length| < L."""
    return len(_one_sided_lengths(q, L, max_cells, tol))


def systole(
    q: MarkoffQuad | IntegerQuad,
    max_cells: int = DEFAULT_MAX_CELLS,
    tol: float = DEFAULT_TOL,
) -> tuple[complex, SpectrumEntry]:
    """Shortest curve class by |length|, with its witness.

    The sink bounds its own search.  Let l* be the smallest |length|
    among its four cells and six faces: a class no longer than l* has
    |trace| <= 2 sinh(l*/2) if one-sided and |product| <= 2 cosh(l*/2) + 2
    if two-sided, as in the spectra, so one walk to both bounds sees
    every candidate.  The bounds never fall below the |trace| or
    |product| of a sink class of length l*, whatever the rounding of
    sinh and cosh.  Ties go to one-sided classes, then to the lowest cell
    id or id pair.  A degenerate sink class raises before the walk.

    On a Fuchsian quad the systole is at most 2 asinh(2), the length of
    a cell of trace 4.  Sort a positive sink as a <= b <= c <= d and let
    s = a + b + c.  The flip of d is s^2/d, so d <= s, and the relation
    (s + d)^2 = abcd gives d + s^2/d = abc - 2s.  As x + s^2/x falls
    strictly on [c, s], abc - 2s <= c + s^2/c: a*b*c^2 <= (a + b + 2c)^2,
    with equality exactly when d = c.  With a + b <= 2c, ab <= 16, so the
    smallest entry a is at most 4, and is 4 only at (4,4,4,4).
    """
    sink = reduce_to_sink(q, tol=tol)[0]
    vals = sink.values()
    products = [vals[i] * vals[j] for i in range(4) for j in range(i + 1, 4)]
    cells = [(abs(one_sided_length(v)), abs(v)) for v in vals]
    faces = [(abs(two_sided_length(p - 2)), abs(p)) for p in products]
    best = min(cells + faces)[0]
    cell_bound = max([_trace_bound(math.sinh, best)] + [m for a, m in cells if a == best])
    face_bound = max([_trace_bound(math.cosh, best) + 2.0] + [m for a, m in faces if a == best])
    w = walk(sink, cell_bound=cell_bound, face_bound=face_bound, max_cells=max_cells, tol=tol)
    _require_complete(w, max_cells)
    one = min(_one_sided_rows(w, cell_bound, math.inf, w.words()),
              key=lambda row: (row[0], row[2]), default=None)  # |l|, then id
    two = min(_two_sided_rows(w.faces, math.inf), default=None)
    if one is not None and (two is None or one[0] <= two[0]):
        kind, row = CurveKind.ONE_SIDED, one
    else:
        kind, row = CurveKind.TWO_SIDED, two
    _, word, ref, trace, length = row
    return length, SpectrumEntry(kind, trace, length, ref, word)


class GrowthFit(NamedTuple):
    """Least-squares fit of log s(L) = m log L + log eta."""

    samples: tuple[tuple[float, int], ...]
    exponent: float
    intercept_log_eta: float
    fit_residual: float


def fit_power_law(samples) -> tuple[float, float, float]:
    """Slope, intercept and RMS residual of a log-log least-squares line
    through (L, count) samples; a count <= 0 is skipped.  An L that is
    not finite and positive, or a float count that is not finite, raises
    DomainError; an int count is never made a float."""
    pts = []
    for L, s in samples:
        if not 0 < L < math.inf or isinstance(s, float) and not math.isfinite(s):
            raise DomainError(f"cannot fit the sample {(L, s)!r}: need a finite L > 0 and count")
        if s > 0:
            pts.append((math.log(L), math.log(s)))
    if len(pts) < 2:
        raise DomainError("need at least two nonzero counts to fit")
    n = len(pts)
    mx = sum(x for x, _ in pts) / n
    my = sum(y for _, y in pts) / n
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    if sxx == 0:
        raise DomainError("degenerate fit: all L equal")
    m = sum((x - mx) * (y - my) for x, y in pts) / sxx
    c = my - m * mx
    rss = sum((y - (m * x + c)) ** 2 for x, y in pts)
    return m, c, math.sqrt(rss / n)


def growth_exponent(
    q: MarkoffQuad | IntegerQuad,
    lmin: float,
    lmax: float,
    shells: int,
    max_cells: int = DEFAULT_MAX_CELLS,
    tol: float = DEFAULT_TOL,
) -> GrowthFit:
    """Fit the counting function on geometrically spaced cutoffs.

    The asymptotic exponent is approached slowly; desk-scale windows
    give a coarse estimate only.  One walk to the largest cutoff serves
    every shell: pruning is monotone in the cutoff, so a smaller
    cutoff's classes are exactly those of the large walk below it.
    The shells count against max_cells, like the cells of the walk.
    """
    if shells < 4:
        raise DomainError("need at least 4 shells")
    if not (0 < lmin < lmax):
        raise DomainError("need 0 < lmin < lmax")
    if shells > max_cells:
        raise BudgetExceededError(f"{shells} shells exceed the cell budget {max_cells}")
    ratio = lmax / lmin
    cutoffs = [lmin * ratio ** (k / (shells - 1)) for k in range(shells)]
    # the last cutoff may round above lmax, so walk to the largest sample
    lengths = sorted(_one_sided_lengths(q, max(cutoffs), max_cells, tol))
    samples = [(L, bisect_left(lengths, L)) for L in cutoffs]
    m, c, res = fit_power_law(samples)
    return GrowthFit(samples=tuple(samples), exponent=m,
                     intercept_log_eta=c, fit_residual=res)
