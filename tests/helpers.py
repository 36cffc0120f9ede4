"""Independent oracles shared by the test suite.

Everything here is computed from first principles (literal formulas,
exhaustive walks, brute-force scans) so that tests compare the library
against a second, unrelated route to the same numbers.
"""

import cmath
import math
import struct
from collections import deque


# a valid complex quad (as `mql` argv) whose descent finds no sink: it
# runs past the float step cap
NO_SINK = ("2.82994373389295-0.624969029583311i,-0.5916790927937914+2.680782038789358i,"
           "1.3487919938052917-1.979978040168627i,0.5682813189003814-0.734440080060708i")

# the values of a complex quad whose descent takes the word [4, 1, 4, 1],
# so its face of product 19.567... * 0.1536... = 3.0057, inside [0, 4], is
# not among the sink's six: a walk from the sink finds it among its first
# 16 cells, and spends every budget tried, 200,000 cells included
DEEP_VIOLATION = (19.567214491487373, 0.153608857113762,
                  5.771479429979589 + 1.2959117573731556j,
                  -19.10292185666132 + 19.911812789801616j)


def quad_residual(vals):
    a, b, c, d = [complex(v) for v in vals]
    return abs((a + b + c + d) ** 2 - a * b * c * d)


def brute_flip(vals, i):
    """Literal flip formula, 1-based index."""
    o = [v for j, v in enumerate(vals) if j != i - 1]
    return o[0] * o[1] * o[2] - 2 * (o[0] + o[1] + o[2]) - vals[i - 1]


def completion_roots(a, b, c):
    """Quadratic-formula roots of x^2 + (2(a+b+c) - abc)x + (a+b+c)^2."""
    a, b, c = complex(a), complex(b), complex(c)
    B = 2 * (a + b + c) - a * b * c
    disc = cmath.sqrt(B * B - 4 * (a + b + c) ** 2)
    return (-B + disc) / 2, (-B - disc) / 2


def unpruned_walk(vals, depth, face_bound=None):
    """Exhaustive breadth-first walk to a fixed depth, no pruning.

    Returns (cells, faces): cells maps identity -> value where identity
    is ("r", slot) for the four roots or the creating flip word; faces
    maps frozenset of two identities -> product, collected at every
    visited vertex (filtered by |product| <= face_bound when given).
    """
    vals = tuple(complex(v) for v in vals)
    idents = tuple(("r", i) for i in range(4))
    cells = {idents[i]: vals[i] for i in range(4)}
    faces = {}
    queue = deque([((), idents, vals)])
    while queue:
        word, keys, vv = queue.popleft()
        for i in range(4):
            for j in range(i + 1, 4):
                p = vv[i] * vv[j]
                if face_bound is None or abs(p) <= face_bound:
                    faces.setdefault(frozenset((keys[i], keys[j])), p)
        if len(word) >= depth:
            continue
        for i in range(1, 5):
            if word and word[-1] == i:
                continue
            nv = brute_flip(vv, i)
            nword = word + (i,)
            cells[nword] = nv
            nkeys = list(keys)
            nkeys[i - 1] = nword
            nvals = list(vv)
            nvals[i - 1] = nv
            queue.append((nword, tuple(nkeys), tuple(nvals)))
    return cells, faces


def unpruned_cells_below(vals, bound):
    """All cell values <= bound for a reduced positive real quad, by a
    plain level-by-level walk with no pruning.

    Away from the sink, a forward flip replaces s by (sum of the other
    three)^2 / s >= that sum, so every new value strictly exceeds the
    value its branch introduced one level earlier; once a whole level's
    new values exceed the bound, no deeper cell can return below it.
    """
    vals = tuple(float(v.real if isinstance(v, complex) else v) for v in vals)
    assert min(vals) > 0
    out = [v for v in vals if v <= bound]
    level = [((), vals)]
    while level:
        nxt = []
        new_min = math.inf
        for word, vv in level:
            for i in range(1, 5):
                if word and word[-1] == i:
                    continue
                nv = brute_flip(vv, i).real
                new_min = min(new_min, nv)
                if nv <= bound:
                    out.append(nv)
                nvals = list(vv)
                nvals[i - 1] = nv
                nxt.append((word + (i,), tuple(nvals)))
        if new_min > bound:
            break
        level = nxt
    return out


def exact_cells_below(vals, bound):
    """All cell values <= bound of a reduced positive integer quad, as
    exact ints, by a depth-first walk over every flip word.

    As in unpruned_cells_below, each new value strictly exceeds the value
    its branch introduced one level earlier, so a branch whose new value
    exceeds the bound holds no deeper cell below it: each branch is
    followed until then, and no other branch is cut.
    """
    assert all(type(v) is int for v in vals) and min(vals) > 0
    out = [v for v in vals if v <= bound]
    stack = [((), tuple(vals))]
    while stack:
        word, vv = stack.pop()
        for i in range(1, 5):
            if word and word[-1] == i:
                continue
            nv = brute_flip(vv, i)
            if nv <= bound:
                out.append(nv)
                nvals = list(vv)
                nvals[i - 1] = nv
                stack.append((word + (i,), tuple(nvals)))
    return out


def unpruned_count_below_length(vals, L):
    """Independent s(L): one-sided classes with length < L for a reduced
    positive quad."""
    bound = 2.0 * math.sinh(L / 2)
    return sum(
        1 for v in unpruned_cells_below(vals, bound) if 2 * math.asinh(v / 2) < L
    )


def jordan_totient2(n):
    """J_2(n) = n^2 * prod over prime p | n of (1 - 1/p^2), exactly."""
    result = n * n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            result = result // (p * p) * (p * p - 1)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        result = result // (m * m) * (m * m - 1)
    return result


def sum_rule_weights(depth, cap):
    """Weights <= cap of the cells of the sum-rule tree within `depth`
    levels of its basis edge, one entry per cell, by a plain
    level-by-level walk of both sides of the edge.

    The basis edge is three cells of weight 1; each of its two endpoint
    vertices adds a cell of weight 3 (level 0).  A vertex is its four
    weights, the newest last.  Each of the three edges it was not
    entered by drops one of the other three cells and adds, at level
    j + 1, a cell whose weight is the sum of the three kept.  A branch
    whose new weight exceeds cap is not followed: that sum includes the
    newest weight, so weights only grow along a branch.
    """
    weights = [1, 1, 1]
    level = []
    if cap >= 3:
        weights += [3, 3]
        level = [(1, 1, 1, 3), (1, 1, 1, 3)]
    for _ in range(depth):
        nxt = []
        for vertex in level:
            for drop in range(3):
                kept = vertex[:drop] + vertex[drop + 1:]
                w = sum(kept)
                if w <= cap:
                    weights.append(w)
                    nxt.append(kept + (w,))
        level = nxt
    return weights


def brute_integral_scan(B, a_max=None, b_max=None):
    """All positive integer quads a <= b <= c <= d <= B, optionally with
    a <= a_max and b <= b_max: for each triple, solve the completion
    quadratic over the integers."""
    out = set()
    for a in range(1, (B if a_max is None else a_max) + 1):
        for b in range(a, (B if b_max is None else b_max) + 1):
            for c in range(b, B + 1):
                s = a + b + c
                lin = 2 * s - a * b * c
                disc = lin * lin - 4 * s * s
                if disc < 0:
                    continue
                r = math.isqrt(disc)
                if r * r != disc:
                    continue
                for sgn in (1, -1):
                    num = -lin + sgn * r
                    if num % 2:
                        continue
                    d = num // 2
                    if c <= d <= B and (s + d) ** 2 == a * b * c * d:
                        out.add((a, b, c, d))
    return out


def flip_closure_below(roots, B, max_cells):
    """All positive integer quads with max entry <= B, as sorted tuples in
    sorted order, by breadth-first closure from `roots` along all four
    flips, each child sorted afresh.  More than max_cells quads raise
    BudgetExceededError."""
    from markoffquads.errors import BudgetExceededError

    seen = set()
    queue = deque()

    def add(canon):
        if len(seen) >= max_cells:
            raise BudgetExceededError(
                f"cell budget {max_cells} exhausted before every integer quad below B was found"
            )
        seen.add(canon)
        queue.append(canon)

    for root in roots:
        v = tuple(sorted(root))
        if max(v) <= B and v not in seen:
            add(v)
    while queue:
        vals = queue.popleft()
        for i in range(4):
            v = brute_flip(vals, i + 1)
            if v <= B:
                canon = tuple(sorted(vals[:i] + (v,) + vals[i + 1:]))
                if canon not in seen:
                    add(canon)
    return sorted(seen)


def random_complex_quad(rng, box=3.0):
    """Valid complex quad: random (a, b, c) plus a completion root."""
    while True:
        a = complex(rng.uniform(-box, box), rng.uniform(-box, box))
        b = complex(rng.uniform(-box, box), rng.uniform(-box, box))
        c = complex(rng.uniform(-box, box), rng.uniform(-box, box))
        r1, r2 = completion_roots(a, b, c)
        d = r1 if rng.random() < 0.5 else r2
        vals = (a, b, c, d)
        scale = max(1.0, abs(a * b * c * d))
        if quad_residual(vals) <= 1e-9 * scale:
            return vals


def perturb_quad(vals, rng, scale=1e-3):
    """Complex perturbation of a valid quad: jiggle a, b, c and complete
    with the root nearest the original d."""
    a, b, c, d = [complex(v) for v in vals]
    a *= 1 + scale * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    b *= 1 + scale * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    c *= 1 + scale * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    r1, r2 = completion_roots(a, b, c)
    nd = r1 if abs(r1 - d) <= abs(r2 - d) else r2
    return (a, b, c, nd)


def random_subtree(rng, size):
    """Up to `size` flip words from the root that form a connected
    subtree, the empty word included: each new word extends a random
    word already present by a random slot that does not backtrack."""
    words = {()}
    frontier = [()]
    while len(words) < size and frontier:
        w = rng.choice(frontier)
        i = rng.choice([i for i in range(1, 5) if not (w and w[-1] == i)])
        new = w + (i,)
        if new not in words:
            words.add(new)
            frontier.append(new)
    return words


def value_bits_or_error(f, *args):
    """f(*args) as the bits of its complex value, or the type and text
    of the exception it raises, so that two routes can be compared
    exactly, NaN results and errors included."""
    try:
        z = f(*args)
    except Exception as e:
        return type(e), str(e)
    return struct.pack("<dd", z.real, z.imag)


def around(v):
    """v and the floats one ulp below and above it."""
    return math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf)
