"""The tree of Markoff quads.

Vertices of the underlying 4-regular tree are quads; crossing an edge
flips one entry.  One-sided curve classes are 3-cells: an entry slot
keeps its identity across every flip that does not replace it, so cells
are tracked by persistent ids, and a pair of cells meeting at a vertex
is a face (a two-sided curve class).  A pruned breadth-first walk
enumerates all cells below a trace bound and all faces below a product
bound; this is the engine behind spectra, identity sums and the
summability check.

`walk` runs that walk and returns its arrays as a `Walk`: per cell id
the value, the creating vertex and the slot flipped there, plus the
faces keyed by id pair.  A cell's flip word is rebuilt from those
arrays only when asked for (`Walk.words`), so callers build words only
when they print them.  A walk that runs out of its cell budget returns
what it found, with budget_hit set; each caller decides what that means.
"""

from __future__ import annotations

import cmath
import enum
import math
from collections import deque
from typing import NamedTuple

from .errors import DomainError, InvalidQuadError
from .quadalgebra import DEFAULT_MAX_CELLS, DEFAULT_TOL, IntegerQuad, MarkoffQuad, _tol, flips


class VertexKind(enum.Enum):
    SINK = "sink"
    FUNNEL = "funnel"
    SADDLE2 = "saddle2"
    SADDLE3 = "saddle3"


class VertexClass(NamedTuple):
    """Orientation of the four incident edges: +1 outgoing (the flip
    strictly decreases magnitude), -1 incoming, 0 tie."""

    kind: VertexKind
    orientations: tuple[int, int, int, int]

    @property
    def outgoing(self) -> int:
        return sum(1 for o in self.orientations if o == +1)


def classify_vertex(q: MarkoffQuad, tol: float = DEFAULT_TOL) -> VertexClass:
    """Classify a vertex by its count of strictly magnitude-decreasing
    flips.  Four outgoing edges (a source) raise InvalidQuadError, on
    the claim that no valid quad has them.  The claim is unproven: 400,000
    random complex quads had none, but no argument here rules one out.
    A loose tol lets an invalid quad with four through.  A flip whose
    modulus is past the float range raises DomainError."""
    q.require_valid(tol)
    vals = q.values()
    orient = []
    try:
        for new, old in zip(flips(*vals), vals):
            new, old = abs(new), abs(old)
            orient.append(+1 if new < old else (-1 if new > old else 0))
    except OverflowError:  # abs of finite parts whose modulus is past the float range
        raise DomainError("a flip's modulus is out of float range") from None
    out = sum(1 for o in orient if o == +1)
    if out == 4:
        raise InvalidQuadError("four outgoing edges: no valid quad is a source")
    kind = {0: VertexKind.SINK, 1: VertexKind.FUNNEL,
            2: VertexKind.SADDLE2, 3: VertexKind.SADDLE3}[out]
    return VertexClass(kind=kind, orientations=tuple(orient))


class Face(NamedTuple):
    """An unordered pair of cells meeting at some visited vertex."""

    cells: tuple[int, int]
    product: complex | float | int


class Walk(NamedTuple):
    """The arrays of one pruned walk.  values, parents and slots are
    indexed by cell id: a cell's value, the vertex that created it and
    the slot (1..4) flipped there.  A vertex is named by the cell created
    on arrival; the root is named by cell 0, and root cells 0..3 carry
    parent 0 and slot 0.  faces maps each recorded id pair (smaller id
    first) to its product, in discovery order.  Values and products are
    in the arithmetic the walk ran in: ints from an IntegerQuad root,
    floats from a root that `walk` takes on its real path, complex
    otherwise.  nodes_visited counts the vertices whose flips were
    tried, derived after the loop as `walk` says."""

    values: list[complex | float | int]
    parents: list[int]
    slots: list[int]
    faces: dict[tuple[int, int], complex | float | int]
    nodes_visited: int
    budget_hit: bool

    def words(self) -> list[tuple[int, ...]]:
        """Every cell's flip word, in id order: the slots flipped on the
        way from the root to the vertex that created it (empty for a root
        cell).  Each extends its parent's."""
        parents, slots = self.parents, self.slots
        words: list[tuple[int, ...]] = [()] * 4
        for k in range(4, len(parents)):
            words.append(words[parents[k]] + (slots[k],))
        return words


def walk(
    q: MarkoffQuad | IntegerQuad,
    cell_bound: float | None = None,
    face_bound: float | None = None,
    max_cells: int = DEFAULT_MAX_CELLS,
    tol: float = DEFAULT_TOL,
) -> Walk:
    """Pruned breadth-first exploration from q, as arrays.

    Records every created cell and every face with |product| within
    face_bound seen at a visited vertex.  A cell's id is its discovery
    index: root slots are 0..3, then each visited vertex creates its
    cells in slot order, so ids are canonical.  A flip is followed when
    its magnitude is below the largest of the three magnitudes it leaves
    in place (a descending direction), is within cell_bound, or times
    the smallest of those three is within face_bound.  A NaN bound
    raises DomainError before the walk; an infinite one is legal.  A
    value or face product whose parts are finite but whose modulus is
    past the float range raises DomainError.

    The budget: a walk holds at most max(max_cells, 4) cells.  A
    followed flip past that ends the walk, which returns what it found,
    with budget_hit set; it never raises for a spent budget, and each
    caller decides what one means.  A NaN max_cells, which no budget
    test would catch, raises DomainError before the walk.  The vertices
    are the root and the cells 4 .. n-1 of a walk that made n cells,
    queued and popped in id order, so nodes_visited is n - 3 less the
    vertices still queued when the loop ends.

    A walk cut by its budget is a prefix of the walk at any larger one:
    the arithmetic is chosen before the loop, and the loop reads
    max_cells only in the budget test, which ends it or changes nothing.
    So at budgets 4 <= n < N both walks run alike until the first
    follows a flip past its n-th cell.  Its values, parents and slots
    are then the second's first n, and its faces, recorded as each
    vertex is popped, the second's first in insertion order.  A walk
    with no budget_hit is complete: every larger budget gives it too.

    Each queued vertex is one flat tuple (its name, arrival slot, four
    cell ids, four values and their four magnitudes), and the loop body
    is written out once per slot: the arrival cell's faces in one branch
    per arrival slot, then one block per flip.  Each flip block computes
    its own flip inline, so a vertex computes only the three forward
    flips it can follow, never the one back to its parent.  A flip's one
    `abs` gives its magnitude, which its child inherits with the parent's
    other three (the root's four are taken before the loop), and its
    keep test calls no builtin.  The test reads the cell bound, then the
    face bound, then the three descending comparisons, and writes the
    smallest of the three magnitudes as two conditional expressions that
    make `min`'s comparisons in `min`'s order, so a NaN is taken or
    passed over as `min` would.  These are side-effect-free comparisons
    of ints or floats, so the reordered `or` and the written-out minimum
    keep or prune every flip as `m < m1 or m < m2 or m < m3 or m <=
    cell_bound or m * min(m1, m2, m3) <= face_bound` does.  Each flip
    must keep the operation order of `flips` (product of the other three
    in slot order, minus twice their sum, minus the old entry): float
    arithmetic is not associative, so any other order changes the low
    bits of cell values, and with them lengths, sums and, at a bound,
    which cells are kept.

    The arithmetic is chosen before the loop, which runs once.  A
    Fuchsian root (four entries with a positive real part and an
    imaginary part of exactly +0.0) under finite bounds is walked in
    floats on its real parts when it is also a sink: no flip of those
    floats is smaller than the entry it replaces, a test that a NaN
    fails.  Every other root is walked in its own arithmetic.  From a
    positive sink every flip the loop computes ascends.  At the sink
    each entry w is at most the sum s of the other three; at each later
    vertex the loop flips only entries other than the one just created,
    which is the largest, so again w <= s.  An exact quad then has
    w' = s**2 / w >= s, so xyz = w' + 2s + w <= 4w': the flip has no
    cancellation, and its float rounds within about 7*gamma*w', gamma a
    few units of 2**-53.  A value therefore stays positive unless the
    values entering its flip have already drifted from the exact ones by
    a large relative amount; the float path assumes they have not, and
    nothing here bounds that drift.  While every value is positive,
    complex `*`, `+`, `-` and `abs` on imaginary parts +0.0 give the
    float results as real parts, so both arithmetics follow the same
    flips, and a flip that overflows is pruned in both.  A non-sink Fuchsian
    root walks in complex: its descending flips may cancel to a value
    <= 0, whose complex products carry signed zeros that decide the
    branch of a two-sided length at a negative product.
    """
    q.require_valid(tol)
    if cell_bound is None and face_bound is None:
        raise DomainError("need at least one of cell_bound, face_bound")
    if cell_bound != cell_bound or face_bound != face_bound:  # a NaN bound keeps nothing
        raise DomainError("cell_bound and face_bound must not be NaN")
    if max_cells != max_cells:  # a NaN budget would bound nothing
        raise DomainError("max_cells must not be NaN")
    start = q.values()
    if (cell_bound != math.inf and face_bound != math.inf
            and all(type(v) is complex and 0.0 < v.real < math.inf and v.imag == 0.0
                    and math.copysign(1.0, v.imag) == 1.0 for v in start)):
        reals = [v.real for v in start]
        if all(f >= v for f, v in zip(flips(*reals), reals)):
            start = reals
    try:
        return _walk(start, cell_bound, face_bound, max_cells)
    except OverflowError:  # abs of finite parts whose modulus is past the float range
        raise DomainError("a cell's or face's modulus is out of float range") from None


def _walk(start, cell_bound, face_bound, max_cells) -> Walk:
    """The loop of `walk`, from the four root values `start`, in their
    arithmetic."""
    values = list(start)
    parents = [0] * 4
    slots = [0] * 4
    faces = {}
    record_faces = face_bound is not None
    if record_faces:
        for i in range(4):
            for j in range(i + 1, 4):
                p = start[i] * start[j]
                if abs(p) <= face_bound:
                    faces[(i, j)] = p
    # no magnitude is <= -1: an absent cell bound keeps nothing
    cbound = -1.0 if cell_bound is None else cell_bound
    # one flat record per queued vertex: (vertex name, arrival slot 0..3
    # or -1 at the root, the four cell ids, the four values, their four
    # magnitudes)
    queue = deque([(0, -1, 0, 1, 2, 3, *start, *map(abs, start))])
    push, pop = queue.append, queue.popleft
    add_value, add_parent, add_slot = values.append, parents.append, slots.append
    n = 4  # cells so far, and the id of the next
    budget_hit = True  # unless the queue empties
    while queue:
        name, back, ia, ib, ic, id_, a, b, c, d, ma, mb, mc, md = pop()
        if record_faces:
            # only the faces of the cell created on arrival are new
            # here: the other three pairs met at the parent.  Each
            # product takes the lower slot first.
            if back == 0:
                p = a * b
                if abs(p) <= face_bound:
                    faces[(ib, name)] = p
                p = a * c
                if abs(p) <= face_bound:
                    faces[(ic, name)] = p
                p = a * d
                if abs(p) <= face_bound:
                    faces[(id_, name)] = p
            elif back == 1:
                p = a * b
                if abs(p) <= face_bound:
                    faces[(ia, name)] = p
                p = b * c
                if abs(p) <= face_bound:
                    faces[(ic, name)] = p
                p = b * d
                if abs(p) <= face_bound:
                    faces[(id_, name)] = p
            elif back == 2:
                p = a * c
                if abs(p) <= face_bound:
                    faces[(ia, name)] = p
                p = b * c
                if abs(p) <= face_bound:
                    faces[(ib, name)] = p
                p = c * d
                if abs(p) <= face_bound:
                    faces[(id_, name)] = p
            elif back == 3:
                p = a * d
                if abs(p) <= face_bound:
                    faces[(ia, name)] = p
                p = b * d
                if abs(p) <= face_bound:
                    faces[(ib, name)] = p
                p = c * d
                if abs(p) <= face_bound:
                    faces[(ic, name)] = p
        # per slot, keep a flip within the cell bound, one whose product
        # with the smallest of the three magnitudes it leaves in place
        # (min's comparisons, written out) is within the face bound, and
        # never prune a strictly descending direction (below one of those
        # three magnitudes)
        if back != 0:
            fa = b * c * d - 2 * (b + c + d) - a
            m = abs(fa)
            if (m <= cbound
                    or (record_faces and m * (md if md < (lo := mc if mc < mb else mb)
                                              else lo) <= face_bound)
                    or m < mb or m < mc or m < md):
                if n >= max_cells:
                    break
                add_value(fa)
                add_parent(name)
                add_slot(1)
                push((n, 0, n, ib, ic, id_, fa, b, c, d, m, mb, mc, md))
                n += 1
        if back != 1:
            fb = a * c * d - 2 * (a + c + d) - b
            m = abs(fb)
            if (m <= cbound
                    or (record_faces and m * (md if md < (lo := mc if mc < ma else ma)
                                              else lo) <= face_bound)
                    or m < ma or m < mc or m < md):
                if n >= max_cells:
                    break
                add_value(fb)
                add_parent(name)
                add_slot(2)
                push((n, 1, ia, n, ic, id_, a, fb, c, d, ma, m, mc, md))
                n += 1
        if back != 2:
            fc = a * b * d - 2 * (a + b + d) - c
            m = abs(fc)
            if (m <= cbound
                    or (record_faces and m * (md if md < (lo := mb if mb < ma else ma)
                                              else lo) <= face_bound)
                    or m < ma or m < mb or m < md):
                if n >= max_cells:
                    break
                add_value(fc)
                add_parent(name)
                add_slot(3)
                push((n, 2, ia, ib, n, id_, a, b, fc, d, ma, mb, m, md))
                n += 1
        if back != 3:
            fd = a * b * c - 2 * (a + b + c) - d
            m = abs(fd)
            if (m <= cbound
                    or (record_faces and m * (mc if mc < (lo := mb if mb < ma else ma)
                                              else lo) <= face_bound)
                    or m < ma or m < mb or m < mc):
                if n >= max_cells:
                    break
                add_value(fd)
                add_parent(name)
                add_slot(4)
                push((n, 3, ia, ib, ic, n, a, b, c, fd, ma, mb, mc, m))
                n += 1
    else:
        budget_hit = False
    # the vertices are the root and cells 4 .. n-1, popped in that order;
    # those still queued were never visited
    return Walk(values, parents, slots, faces, n - 3 - len(queue), budget_hit)


def fibonacci_level_counts(max_value: int) -> dict[int, int]:
    """Count the cells of the sum-rule tree by weight, for all weights
    <= max_value, in increasing order of weight.

    The basis edge is three cells of weight 1.  Each of its two endpoint
    vertices adds a cell of weight 3, and leaving a vertex over any edge
    but the one it was entered by drops one of its three older cells and
    adds a cell whose weight is the sum of the three kept.  The two
    subtrees hanging off the basis edge are mirror images, cell for cell
    and weight for weight, so one is walked and its counts are doubled.

    Every cell is created at exactly one vertex and its weight depends
    only on the path to that vertex, so the counts do not depend on the
    order of the walk; it goes depth-first on an explicit stack, which
    holds at most three vertices per level.  A new weight exceeds the
    newest of the three it sums, so weights strictly increase outward
    and pruning branches whose new weight exceeds max_value is exact.
    """
    if not max_value >= 1:  # NaN too
        raise DomainError("max_value must be >= 1")
    counts = {1: 3}
    half = {}
    stack = [(1, 1, 1, 3)] if max_value >= 3 else []  # newest weight last
    while stack:
        a, b, c, d = stack.pop()
        half[d] = half.get(d, 0) + 1
        for x, y in ((b, c), (a, c), (a, b)):  # drop a, b or c; keep d
            w = x + y + d
            if w <= max_value:
                stack.append((x, y, d, w))
    for w in sorted(half):
        counts[w] = 2 * half[w]
    return counts


class SpiralSequence(NamedTuple):
    """Third values along the boundary of the face fixed by the pair
    (a, b); interior indices satisfy

        c_{n+1} + (2 - ab) c_n + c_{n-1} + 2(a + b) = 0.

    closed_form is (A, B, lam) with c_n = A lam^n + B lam^-n
    - 2(a+b)/(4-ab), present only when ab is not 0 or 4.
    """

    a: complex
    b: complex
    n_start: int
    terms: tuple[complex, ...]
    closed_form: tuple[complex, complex, complex] | None

    def term(self, n: int) -> complex:
        return self.terms[n - self.n_start]

    def closed_term(self, n: int) -> complex:
        if self.closed_form is None:
            raise DomainError("no closed form for ab in {0, 4}")
        A, B, lam = self.closed_form
        a, b = self.a, self.b
        return A * lam ** n + B * lam ** (-n) - 2 * (a + b) / (4 - a * b)


def spiral_sequence(a, b, c0, c1, n0: int, n1: int,
                    tol: float = DEFAULT_TOL) -> SpiralSequence:
    """Iterate the face recurrence in both directions over [n0, n1],
    anchored at indices 0 and 1 by c0 and c1."""
    a, b, c0, c1 = complex(a), complex(b), complex(c0), complex(c1)
    _tol(tol)  # a NaN would drop the closed form
    if n0 > 0 or n1 < 1:
        raise DomainError("need n0 <= 0 < 1 <= n1 to anchor the seeds")
    ab = a * b
    fwd = [c0, c1]
    while len(fwd) < n1 + 1:
        fwd.append((ab - 2) * fwd[-1] - fwd[-2] - 2 * (a + b))
    bwd = []
    lo = [c1, c0]
    while len(bwd) < -n0:
        nxt = (ab - 2) * lo[-1] - lo[-2] - 2 * (a + b)
        bwd.append(nxt)
        lo.append(nxt)
    terms = tuple(reversed(bwd)) + tuple(fwd[: n1 + 1])
    scale = 1.0 + abs(ab)
    closed = None
    if abs(ab) > tol * scale and abs(ab - 4) > tol * scale:
        K = -2 * (a + b) / (4 - ab)
        lam = (ab - 2 + cmath.sqrt(ab * (ab - 4))) / 2
        A = ((c1 - K) * lam - (c0 - K)) / (lam * lam - 1)
        B = (c0 - K) - A
        closed = (A, B, lam)
    return SpiralSequence(a=a, b=b, n_start=n0, terms=terms, closed_form=closed)
