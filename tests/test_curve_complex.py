import math
import random
import re
from collections import Counter, deque

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from markoffquads import (
    BudgetExceededError,
    DomainError,
    HorocyclicCoords,
    IntegerQuad,
    InvalidQuadError,
    MarkoffQuad,
    VertexKind,
    classify_vertex,
    complete_quad,
    curvecomplex,
    enumerate_fundamental,
    enumerate_integral_below,
    fibonacci_level_counts,
    flip_value,
    flips,
    growth_exponent,
    horocyclic_to_quad,
    hurwitz_to_quad,
    in_fundamental_domain,
    klein_sequence,
    mcshane_verify,
    psi,
    quad_to_lambda,
    reduce_to_sink,
    sample_fuchsian_quad,
    spiral_sequence,
    verify_quad,
    walk,
)
from markoffquads.quadalgebra import BRANCH_TOL
from helpers import (
    DEEP_VIOLATION,
    NO_SINK,
    brute_flip,
    jordan_totient2,
    perturb_quad,
    random_complex_quad,
    sum_rule_weights,
    unpruned_walk,
)

Q4 = MarkoffQuad(4, 4, 4, 4)


def test_classify_vertex_examples():
    assert classify_vertex(Q4).kind is VertexKind.SINK
    vc = classify_vertex(MarkoffQuad(4, 4, 4, 36))
    assert vc.kind is VertexKind.FUNNEL
    assert vc.orientations == (-1, -1, -1, +1)
    z = complex(0, 1 / math.sqrt(2))
    saddle = MarkoffQuad(z, z, z, -2 * z)
    vc = classify_vertex(saddle)
    assert vc.kind is VertexKind.SADDLE3
    assert vc.outgoing == 3


def test_classify_vertex_tie_is_sink():
    # self-flip tie at the last entry counts as incoming
    vc = classify_vertex(MarkoffQuad(1, 5, 24, 30))
    assert vc.kind is VertexKind.SINK
    assert vc.orientations[3] == 0


def test_classify_vertex_rejects_a_source():
    # (2.5, 2.5, 2.5, 2.5) is no quad (relative residual 1.56), but a tol
    # of 2 lets it through; each flip is -1.875, smaller in modulus, so it
    # has the four outgoing edges that no valid quad is known to have
    with pytest.raises(InvalidQuadError, match="four outgoing edges"):
        classify_vertex(MarkoffQuad(2.5, 2.5, 2.5, 2.5), tol=2)


def test_no_source_over_random_quads():
    rng = random.Random(77)
    for _ in range(10_000):
        vals = random_complex_quad(rng)
        vc = classify_vertex(MarkoffQuad.from_values(vals), tol=1e-6)
        assert vc.outgoing <= 3


def test_saddle_has_small_face():
    # at a saddle, the pair shared by two outgoing edges has |product| <= 4
    rng = random.Random(78)
    found = 0
    for _ in range(20_000):
        vals = random_complex_quad(rng)
        vc = classify_vertex(MarkoffQuad.from_values(vals), tol=1e-6)
        out = [i for i, o in enumerate(vc.orientations) if o == +1]
        if len(out) >= 2:
            found += 1
            for i in out:
                for j in out:
                    if i < j:
                        shared = [vals[k] for k in range(4) if k not in (i, j)]
                        assert abs(shared[0] * shared[1]) <= 4 + 1e-6
    assert found > 0  # the sample really does hit saddles


def test_classify_vertex_flip_past_the_float_range():
    # a valid quad (residual 1.6e-16) some of whose flips have finite
    # parts and a modulus past the float range
    z = 5.741387723620521e+102 + 1.5384002039780802e+102j
    q = MarkoffQuad(z, z, z, 1.4625583084179431e-102 - 3.918913176240167e-103j)
    with pytest.raises(DomainError, match="out of float range"):
        classify_vertex(q)


def test_reduce_to_sink_examples():
    sink, word = reduce_to_sink(MarkoffQuad(4, 4, 4, 36))
    assert sink.values() == (4, 4, 4, 4) and word == [4]
    sink, word = reduce_to_sink(Q4)
    assert sink.values() == (4, 4, 4, 4) and word == []
    sink, word = reduce_to_sink(MarkoffQuad(484, 4, 4, 36))
    assert sink.values() == (4, 4, 4, 4) and word == [1, 4]


def test_reduce_to_sink_budget():
    # a float descent stops at the fixed step cap; tol is keyword-only,
    # so a step cap passed by position fails rather than become a tolerance
    from markoffquads.cli import parse_quad
    with pytest.raises(BudgetExceededError, match="no sink within 10000 flips"):
        reduce_to_sink(parse_quad(NO_SINK))
    with pytest.raises(TypeError):
        reduce_to_sink(MarkoffQuad(484, 4, 4, 36), 5)


def _cells_within(q, bound, **kw):
    """(id, value) of every cell of a cell-bound walk with |value| <= bound."""
    w = walk(q, cell_bound=bound, **kw)
    return [(k, v) for k, v in enumerate(w.values) if abs(v) <= bound]


def test_walk_cells_examples():
    cells = _cells_within(Q4, 36)
    assert len(cells) == 8
    assert sorted(abs(v) for _, v in cells) == [4, 4, 4, 4, 36, 36, 36, 36]
    assert [k for k, _ in cells] == list(range(8))
    assert len(_cells_within(Q4, 4)) == 4
    assert len(_cells_within(Q4, 3)) == 0


def test_walk_cells_budget():
    # a spent budget is reported, not raised
    w = walk(Q4, cell_bound=1e12, max_cells=20)
    assert w.budget_hit and len(w.values) == 20


def test_walk_faces_examples():
    faces = sorted(walk(Q4, face_bound=16).faces.items())
    assert len(faces) == 6
    assert all(abs(p - 16) <= 1e-12 for _, p in faces)
    assert [pair for pair, _ in faces] == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    faces = sorted(walk(Q4, face_bound=144).faces.items())
    assert len(faces) == 18
    assert sum(1 for _, p in faces if abs(p - 144) <= 1e-9) == 12
    assert walk(Q4, face_bound=15).faces == {}


def test_pruned_matches_unpruned_walk():
    depth = 6
    for start, cell_bound, face_bound in [
        ((4, 4, 4, 4), 4e6, 4e6),
        ((2, 5, 5, 8), 1e5, 1e5),
        ((3, 3, 6, 6), 1e5, 1e5),
    ]:
        q = MarkoffQuad.from_values(start)
        oracle_cells, oracle_faces = unpruned_walk(start, depth, face_bound=face_bound)

        w = walk(q, cell_bound=cell_bound, face_bound=face_bound)
        words = w.words()
        ident = [("r", k) if k < 4 else word for k, word in enumerate(words)]

        got_cells = {
            ident[k]: v
            for k, v in enumerate(w.values)
            if abs(v) <= cell_bound and len(words[k]) <= depth
        }
        want_cells = {k: v for k, v in oracle_cells.items()
                      if abs(v) <= cell_bound}
        assert set(got_cells) == set(want_cells)
        for k, v in want_cells.items():
            assert abs(got_cells[k] - v) <= 1e-9 * max(1.0, abs(v))

        def face_depth(pair):
            return max(0 if p[0] == "r" else len(p) for p in pair)

        got_faces = {
            frozenset((ident[i], ident[j]))
            for (i, j), p in w.faces.items()
            if abs(p) <= face_bound
        }
        got_faces = {p for p in got_faces if face_depth(p) <= depth}
        want_faces = {p for p, prod in oracle_faces.items()
                      if abs(prod) <= face_bound}
        assert got_faces == want_faces


def test_tree_property_distinct_nodes():
    # all non-backtracking words to depth 4 give pairwise distinct id
    # tuples, and for a generic (tie-free) quad distinct value tuples too
    from markoffquads import HorocyclicCoords, horocyclic_to_quad

    generic = horocyclic_to_quad(HorocyclicCoords(0.1, 0.2, 0.3, 0.4))
    # a vertex is (cell ids, values, flipped slot); a flip gives the
    # replaced slot a fresh id
    start = ((0, 1, 2, 3), generic.values(), None)
    nodes = [start]
    frontier = [start]
    next_id = 4
    for _ in range(4):
        nxt = []
        for cells, values, move in frontier:
            new = flips(*values)
            for k in range(4):
                if move == k:
                    continue
                nxt.append((cells[:k] + (next_id,) + cells[k + 1:],
                            values[:k] + (new[k],) + values[k + 1:], k))
                next_id += 1
        nodes.extend(nxt)
        frontier = nxt
    assert len(nodes) == 1 + 4 + 12 + 36 + 108
    ids = [n[0] for n in nodes]
    assert len(set(ids)) == len(ids)
    vals = [n[1] for n in nodes]
    assert len(set(vals)) == len(vals)


def test_fibonacci_level_sets_bound():
    counts = fibonacci_level_counts(50)
    assert counts[1] == 3
    assert counts[3] == 2
    assert counts[5] == 6
    for n in range(1, 51):
        assert counts.get(n, 0) < 4 * jordan_totient2(n), n
    with pytest.raises(DomainError):
        fibonacci_level_counts(0)


def test_spiral_sequence_example():
    # ab = 16 spiral through 4, 36: next is 14*36 - 4 - 16 = 484
    sp = spiral_sequence(4, 4, 4, 36, 0, 6)
    assert sp.term(2) == pytest.approx(484)
    lam = 7 + 4 * math.sqrt(3)
    A, B, l = sp.closed_form
    assert l == pytest.approx(lam, abs=1e-9)
    for n in range(0, 7):
        assert sp.closed_term(n) == pytest.approx(sp.term(n), rel=1e-9)


def test_spiral_sequence_backward():
    sp = spiral_sequence(4, 4, 4, 36, -3, 3)
    # backward from (4, 36): c_{-1} = 14*4 - 36 - 16 = 4, then 36, 484
    assert sp.term(-1) == pytest.approx(4)
    assert sp.term(-2) == pytest.approx(36)
    assert sp.term(-3) == pytest.approx(484)
    # the seeds sit at n = 0 and 1, so the range must hold both
    with pytest.raises(DomainError, match="need n0 <= 0 < 1 <= n1"):
        spiral_sequence(1, 2, 3, 4, 1, 5)


def test_spiral_sequence_ab4_quadratic():
    # ab = 4: no closed form; second difference is constant -2(a+b)
    sp = spiral_sequence(2, 2, 1.0, 5.0, 0, 8)
    assert sp.closed_form is None
    diffs = [sp.term(n + 1) - 2 * sp.term(n) + sp.term(n - 1) for n in range(1, 8)]
    for d2 in diffs:
        assert d2 == pytest.approx(-8)
    with pytest.raises(DomainError, match=r"no closed form for ab in \{0, 4\}"):
        spiral_sequence(2, 2, 1, 1, 0, 3).closed_term(1)


def test_spiral_growth_ratio():
    sp = spiral_sequence(4, 4, 4, 36, 0, 41)
    lam = 7 + 4 * math.sqrt(3)
    ratio = abs(sp.term(41)) / abs(sp.term(40))
    assert abs(ratio - lam) <= 1e-6


def test_spiral_matches_brute_flips():
    # the spiral is what alternating flips along a face boundary produce
    sp = spiral_sequence(4, 4, 4, 36, 0, 5)
    current = [4.0, 4.0, 4.0, 36.0]
    seq = [current[2], current[3]]
    slot = 3  # flip the third and fourth entries in turn
    for _ in range(4):
        current[slot - 1] = brute_flip(tuple(current), slot)
        seq.append(current[slot - 1])
        slot = 7 - slot
    for n, v in enumerate(seq):
        assert sp.term(n) == pytest.approx(v)


def test_sink_uniqueness_over_translates():
    # reducing any bounded tree translate of the same quad reaches the
    # same sink up to entry permutation
    from markoffquads import sample_fuchsian_quad

    rng = random.Random(101)
    for _ in range(100):
        q = sample_fuchsian_quad(rng)
        base, _ = reduce_to_sink(q)
        want = sorted(v.real for v in base.values())
        for _ in range(20):
            img = q
            for _ in range(rng.randint(1, 12)):
                i = rng.randint(1, 4)
                from markoffquads import flip

                nxt = flip(img, i)
                if max(abs(v) for v in nxt.values()) > 1e4:
                    continue
                img = nxt
            sink, _ = reduce_to_sink(img, tol=1e-6)
            got = sorted(v.real for v in sink.values())
            for x, y in zip(got, want):
                assert x == pytest.approx(y, rel=1e-6)


def test_walk_fully_pruned_keeps_only_root_cells():
    w = walk(Q4, cell_bound=3.0)
    assert w.values == [4, 4, 4, 4] and w.words() == [()] * 4
    assert w.nodes_visited == 1
    # with neither bound nothing would be pruned
    with pytest.raises(DomainError, match="need at least one of cell_bound, face_bound"):
        walk(Q4)


def test_walk_truncate_respects_budget():
    # a walk that runs out of cells returns what it found: a prefix of
    # the walk made without a budget, parents, slots, words and faces
    # included, for cell-bound, face-bound and both-bound walks from a
    # real, a complex and an exact root
    roots = (Q4, MarkoffQuad.from_values(_QUASI_FUCHSIAN), IntegerQuad(4, 4, 4, 4))
    for q in roots:
        for cell_bound, face_bound in ((1e12, None), (None, 1e16), (1e8, 1e12)):
            full = walk(q, cell_bound=cell_bound, face_bound=face_bound)
            assert not full.budget_hit
            for max_cells in (20, 57):
                w = walk(q, cell_bound=cell_bound, face_bound=face_bound, max_cells=max_cells)
                assert w.budget_hit
                n = len(w.values)
                assert n == max_cells
                assert 0 < w.nodes_visited <= full.nodes_visited
                assert repr(w.values) == repr(full.values[:n])
                assert (w.parents, w.slots) == (full.parents[:n], full.slots[:n])
                assert w.words() == full.words()[:n]
                faces = list(w.faces.items())
                assert repr(faces) == repr(list(full.faces.items())[:len(faces)])


@pytest.mark.parametrize("q", [MarkoffQuad(0, 0, 0, 0),
                               reduce_to_sink(MarkoffQuad(*DEEP_VIOLATION))[0]],
                         ids=["zero", "deep-violation-sink"])
def test_a_cut_walk_is_a_prefix_of_a_longer_cut_walk(q):
    # from a root that is not summable, the summability check's walk is
    # cut at every budget, and a shorter one is still a prefix of a
    # longer one: values, parents, slots, and faces in insertion order
    walks = [walk(q, face_bound=4 + BRANCH_TOL, max_cells=n) for n in (4, 16, 64, 2000)]
    assert [(len(w.values), w.budget_hit) for w in walks] == [(n, True) for n in (4, 16, 64, 2000)]
    for i, short in enumerate(walks):
        for long in walks[i + 1:]:
            n = len(short.values)
            assert repr(short.values) == repr(long.values[:n])
            assert (short.parents, short.slots) == (long.parents[:n], long.slots[:n])
            faces = list(short.faces.items())
            assert repr(faces) == repr(list(long.faces.items())[:len(faces)])


@pytest.mark.parametrize("cell_bound, face_bound", [
    (math.nan, None), (None, math.nan), (1e4, math.nan), (math.nan, 1e6)])
def test_walk_rejects_a_nan_bound(cell_bound, face_bound):
    # a NaN bound keeps no cell and no face; it raises before the walk
    with pytest.raises(DomainError, match="must not be NaN"):
        walk(Q4, cell_bound=cell_bound, face_bound=face_bound)


_NAN_TOL = "tol must not be NaN"


@pytest.mark.parametrize("call, message", [
    (lambda: MarkoffQuad(1, 2, 3, 4).require_valid(math.nan), _NAN_TOL),
    (lambda: IntegerQuad(4, 4, 4, 4).require_valid(math.nan), _NAN_TOL),
    (lambda: walk(MarkoffQuad(1, 2, 3, 4), cell_bound=50, tol=math.nan), _NAN_TOL),
    (lambda: verify_quad(Q4, math.nan), "tol must be positive"),
    (lambda: enumerate_integral_below(math.nan), "need B >= 4"),
    (lambda: enumerate_integral_below(10 ** 6, max_cells=math.nan), "max_cells must not be NaN"),
    (lambda: walk(IntegerQuad(4, 4, 4, 4), cell_bound=1e6, max_cells=math.nan),
     "max_cells must not be NaN"),
    (lambda: fibonacci_level_counts(math.nan), "max_value must be >= 1"),
    (lambda: mcshane_verify(Q4, math.nan), "target_tol must be positive"),
    (lambda: psi(MarkoffQuad(1, 2, 3, 4), 1, math.nan), _NAN_TOL),
    (lambda: hurwitz_to_quad(1, 1, 1, 1, tol=math.nan), _NAN_TOL),
    (lambda: quad_to_lambda(MarkoffQuad(4 + 1j, 4, 4, 4), tol=math.nan), _NAN_TOL),
    (lambda: horocyclic_to_quad(HorocyclicCoords(0.1, 0.1, 0.1, 0.1), tol=math.nan), _NAN_TOL),
    (lambda: in_fundamental_domain(HorocyclicCoords(0.25, 0.25, 0.25, 0.25), tol=math.nan),
     _NAN_TOL),
    (lambda: spiral_sequence(4, 4, 4, 36, 0, 40, tol=math.nan), _NAN_TOL),
    (lambda: klein_sequence(3, 1, 2, 5, tol=math.nan), _NAN_TOL),
    # an earlier check of the input still comes first
    (lambda: horocyclic_to_quad(HorocyclicCoords(0.0, 0.5, 0.25, 0.25), tol=math.nan),
     "horocyclic coordinates must be positive"),
    (lambda: psi(MarkoffQuad(0, 0, 0, 0), 1, math.nan),
     "psi undefined: zero entry sum or zero slot product"),
], ids=["require_valid", "integer-require_valid", "walk-tol", "verify_quad",
        "enumerate_integral_below", "enumerate_integral_below-max_cells", "walk-max_cells",
        "fibonacci_level_counts", "mcshane_verify",
        "psi", "hurwitz_to_quad", "quad_to_lambda", "horocyclic_to_quad",
        "in_fundamental_domain", "spiral_sequence", "klein_sequence",
        "horocyclic_to_quad-nonpositive", "psi-zero-sum"])
def test_nan_tolerances_and_bounds_raise(call, message):
    # no comparison with NaN holds, so each check is written to fail on it
    with pytest.raises(DomainError, match=re.escape(message)):
        call()


def test_pruned_matches_unpruned_on_complex_quads():
    # extends the operational completeness check to complex inputs
    from markoffquads import sample_fuchsian_quad
    from helpers import perturb_quad

    rng = random.Random(271)
    depth, bound = 5, 1e4
    for _ in range(5):
        base, _ = reduce_to_sink(sample_fuchsian_quad(rng))
        vals = perturb_quad(base.values(), rng, scale=1e-2)
        oracle_cells, oracle_faces = unpruned_walk(vals, depth, face_bound=bound)
        w = walk(MarkoffQuad.from_values(vals), cell_bound=bound,
                 face_bound=bound, tol=1e-6)
        words = w.words()
        ident = [("r", k) if k < 4 else word for k, word in enumerate(words)]
        got = {ident[k] for k, v in enumerate(w.values)
               if abs(v) <= bound and len(words[k]) <= depth}
        want = {k for k, v in oracle_cells.items() if abs(v) <= bound}
        assert got == want
        got_faces = {frozenset((ident[i], ident[j])) for i, j in w.faces}
        got_faces = {p for p in got_faces
                     if max(0 if k[0] == "r" else len(k) for k in p) <= depth}
        assert got_faces == set(oracle_faces)


def test_fibonacci_two_routes_agree():
    # the library's depth-first count of one mirror subtree, doubled,
    # against a level-by-level walk of both; level j adds weights
    # >= 3 + 2j (the slowest spiral adds 2 per level), so depth
    # (n - 3) // 2 holds every weight <= n and one level more adds none
    for n in range(1, 61):
        depth = max(0, (n - 3) // 2)
        weights = sum_rule_weights(depth, cap=n)
        assert len(sum_rule_weights(depth + 1, cap=n)) == len(weights), n
        assert fibonacci_level_counts(n) == dict(Counter(weights)), n


# C(n), the number of cells of weight <= n; log|trace| is comparable to
# the weight, so C grows at the rate of the one-sided length count
FIBONACCI_TOTALS = {25: 323, 50: 1535, 100: 7853, 200: 42605, 400: 232613,
                    800: 1267685}


def test_fibonacci_growth_is_strictly_between_quadratic_and_cubic():
    # the paper's non-polynomial growth in exact integers: on every
    # doubling 4 C(n) < C(2n) < 8 C(n), a local slope strictly between 2
    # and 3; the slopes are not monotone (2.449 at 200->400, 2.446 at
    # 400->800), so only the bracket is asserted
    totals = {n: sum(fibonacci_level_counts(n).values()) for n in FIBONACCI_TOTALS}
    assert totals == FIBONACCI_TOTALS
    for n in totals:
        if 2 * n in totals:
            assert 4 * totals[n] < totals[2 * n] < 8 * totals[n], n


def test_growth_fit_lies_in_the_fibonacci_slope_bracket():
    # the float log-log fit on lengths (2.4333) lands inside the bracket
    # [2.2486, 2.4488] of the exact local slopes log2(C(2n) / C(n))
    slopes = [math.log2(FIBONACCI_TOTALS[2 * n] / FIBONACCI_TOTALS[n])
              for n in FIBONACCI_TOTALS if 2 * n in FIBONACCI_TOTALS]
    fit = growth_exponent(Q4, 10.0, 34.0, 7)
    assert min(slopes) <= fit.exponent <= max(slopes)


def _reference_walk(vals, cell_bound, face_bound, max_cells):
    """walk() restated flip by flip: one flip_value call per edge, the
    growth rule from its docstring, every pair checked at every visited
    vertex and the first product kept, and a budget that stops the walk.
    Faces come back in discovery order; the last item is the slot (1..4)
    whose flip the budget refused, or None."""
    cells = [(k, v, ()) for k, v in enumerate(vals)]
    faces = {}
    queue = deque([((0, 1, 2, 3), tuple(vals), None, ())])
    visited, stop = 0, None
    while queue and stop is None:
        ids, here, back, word = queue.popleft()
        visited += 1
        if face_bound is not None:
            for i in range(4):
                for j in range(i + 1, 4):
                    p = here[i] * here[j]
                    if abs(p) <= face_bound:
                        faces.setdefault(tuple(sorted((ids[i], ids[j]))), p)
        for i in range(1, 5):
            if i == back:
                continue
            v = flip_value(here, i)
            kept = [abs(x) for k, x in enumerate(here) if k != i - 1]
            if not (abs(v) < max(kept)
                    or (cell_bound is not None and abs(v) <= cell_bound)
                    or (face_bound is not None and abs(v) * min(kept) <= face_bound)):
                continue
            if len(cells) >= max_cells:
                stop = i
                break
            new = len(cells)
            cells.append((new, v, word + (i,)))
            nids, nvals = list(ids), list(here)
            nids[i - 1], nvals[i - 1] = new, v
            queue.append((tuple(nids), tuple(nvals), i, word + (i,)))
    return ([(k, repr(v), w) for k, v, w in cells],
            [(pair, repr(p)) for pair, p in faces.items()],
            visited, stop is not None, stop)


def _check_against_reference(vals, cell_bound, face_bound, max_cells):
    """Assert that walk agrees bit for bit with the reference
    (same ids, values by repr, words, faces in discovery order, node
    count and budget flag), truncated walks included; return the
    reference's result.  vals is an IntegerQuad, whose walk and
    reference both run in exact ints, compared by value and type, or
    four values of a MarkoffQuad.  A real walk's floats are compared as
    the complex numbers they stand for: complex(x) is exact, with an
    imaginary part of +0.0."""
    exact = isinstance(vals, IntegerQuad)
    q = vals if exact else MarkoffQuad.from_values(vals)
    ref = _reference_walk(q.values(), cell_bound, face_bound, max_cells)
    cells, faces, visited, budget_hit, _ = ref
    w = walk(q, cell_bound=cell_bound, face_bound=face_bound, max_cells=max_cells)
    words = w.words()
    if exact:
        # an int's repr is its digits, which no float or complex repr is
        assert {type(x) for x in [*w.values, *w.faces.values()]} == {int}
        assert [(k, repr(v), words[k]) for k, v in enumerate(w.values)] == cells
        assert [(pair, repr(p)) for pair, p in w.faces.items()] == faces
    else:
        assert [(k, repr(complex(v)), words[k]) for k, v in enumerate(w.values)] == cells
        assert [(pair, repr(complex(p))) for pair, p in w.faces.items()] == faces
    assert (w.nodes_visited, w.budget_hit) == (visited, budget_hit)
    return ref


_REAL = (3.0, 4.0, 5.0, complete_quad(3.0, 4.0, 5.0)[1])
_QUASI_FUCHSIAN = (3 + 0.1j, 4 - 0.2j, 5.0, complete_quad(3 + 0.1j, 4 - 0.2j, 5.0)[1])
# a positive real root that is not a sink: its first, descending flip
# rounds to 0.0 and its next ones are negative, so it walks in complex
_ROUNDS_BELOW_ZERO = (complete_quad(1e5, 1e5, 1e5)[1].real, 1e5, 1e5, 1e5)
_SIGNED_ZERO = (complex(4, -0.0),) * 4
# a positive real root whose flips and face products overflow a few
# flips out
_OVERFLOWS = (1e40, 1e40, 1e40, complete_quad(1e40, 1e40, 1e40)[0].real)


@pytest.mark.parametrize("vals, cell_bound, face_bound, max_cells", [
    *[(q, cb, fb, 200_000)
      for q in ((4, 4, 4, 4), _REAL, _QUASI_FUCHSIAN)
      for cb, fb in ((1e5, None), (None, 1e7), (1e4, 1e6))],
    ((4, 4, 4, 4), 1e12, None, 50),
    ((0, 0, 0, 0), 1.0, 1.0, 500),
    # two flips out from the sink, bounds below every entry: only the
    # descending rule moves the walk
    ((484, 4, 4, 36), 3.0, None, 200_000),
    ((484, 4, 4, 36), None, 10.0, 200_000),
    # roots at the edges of the real walk: a positive real root that
    # rounds to a non-positive cell, entries of imaginary part -0.0,
    # negative entries, and infinite bounds, under one of which face
    # products overflow and are kept
    (_ROUNDS_BELOW_ZERO, 10.0, 1e30, 500),
    *[(q, cb, fb, 200_000) for q in (_SIGNED_ZERO, (-4, -4, -4, -4))
      for cb, fb in ((1e5, None), (None, 1e7), (1e4, 1e6))],
    ((4, 4, 4, 4), math.inf, None, 3_000),
    (_OVERFLOWS, None, math.inf, 300),
    # cells that overflow to inf, kept by the test inf <= inf
    (_OVERFLOWS, math.inf, None, 300),
    (_OVERFLOWS, math.inf, math.inf, 300),
    # exact int walks, as bq-check 0,0,0,0 makes: every root has more
    # than 60 cells under these bounds, so the last budget cuts it, and
    # every flip of the zero quad is 0, so each of its walks is cut
    *[(q, cb, fb, n) for q in [*enumerate_fundamental(), IntegerQuad(0, 0, 0, 0)]
      for cb, fb, n in ((1e8, None, 20_000), (None, 1e12, 20_000), (1e7, 1e10, 20_000),
                        (1e8, 1e12, 60))],
])
def test_explore_matches_reference_bfs(vals, cell_bound, face_bound, max_cells):
    cells = _check_against_reference(vals, cell_bound, face_bound, max_cells)[0]
    assert len(cells) > 4


@pytest.mark.parametrize("vals", [(0, 0, 0, 0), (4, 4, 4, 4), _QUASI_FUCHSIAN])
@pytest.mark.parametrize("cell_bound, face_bound", [(1e8, None), (None, 1e12), (1e7, 1e10)])
def test_walk_matches_reference_at_every_truncation(vals, cell_bound, face_bound):
    # every walk here has more than 120 cells, so the budget runs out at
    # each cell count from 4 to 120 and is checked for the flip of every
    # slot
    stops = set()
    for max_cells in range(4, 121):
        cells, _, _, budget_hit, stop = _check_against_reference(
            vals, cell_bound, face_bound, max_cells)
        assert budget_hit and len(cells) == max_cells
        stops.add(stop)
    assert stops == {1, 2, 3, 4}


@given(st.integers(0, 2 ** 32), st.sampled_from([1e-3, 1e-2, 5e-2]),
       st.one_of(st.none(), st.floats(0, 30)), st.one_of(st.none(), st.floats(0, 40)),
       st.integers(1, 2000))
@settings(max_examples=40, derandomize=True, deadline=None)
def test_walk_matches_reference_on_perturbed_quads(seed, scale, log_cell, log_face,
                                                   max_cells):
    assume(log_cell is not None or log_face is not None)
    rng = random.Random(seed)
    base, _ = reduce_to_sink(sample_fuchsian_quad(rng))
    vals = perturb_quad(base.values(), rng, scale=scale)
    _check_against_reference(vals, None if log_cell is None else 10 ** log_cell,
                             None if log_face is None else 10 ** log_face,
                             max_cells)


@pytest.mark.parametrize("vals, cell_bound, face_bound, max_cells, real_walks", [
    ((4, 4, 4, 4), 1e5, None, 200_000, [True]),
    ((4, 4, 4, 4), None, 1e7, 200_000, [True]),
    ((2, 5, 5, 8), 1e4, 1e6, 200_000, [True]),
    (_ROUNDS_BELOW_ZERO, 10.0, 1e30, 500, [False]),
    (_SIGNED_ZERO, 1e5, None, 200_000, [False]),
    ((-4, -4, -4, -4), 1e5, None, 200_000, [False]),
    (_QUASI_FUCHSIAN, 1e5, None, 200_000, [False]),
    ((4, 4, 4, 4), math.inf, None, 3_000, [False]),
    ((4, 4, 4, 4), 1e5, math.inf, 3_000, [False]),
    # completed from real entries, so its last entry is real too; it is
    # the larger completion, whose flip of that entry descends: no sink
    (_REAL, 1e4, None, 200_000, [False]),
    # a real sink that runs out of budget, and a walk whose products overflow
    ((4, 4, 4, 4), 1e12, None, 50, [True]),
    (_OVERFLOWS, None, math.inf, 300, [False]),
])
def test_walk_takes_the_real_path_only_where_it_is_exact(
        monkeypatch, vals, cell_bound, face_bound, max_cells, real_walks):
    # one loop call per walk, in floats only from a Fuchsian sink under
    # finite bounds.  A real walk returns floats, any other complex
    loop, seen = curvecomplex._walk, []

    def spy(start, cell_bound, face_bound, max_cells):
        seen.append(type(start[0]) is float)
        return loop(start, cell_bound, face_bound, max_cells)

    monkeypatch.setattr(curvecomplex, "_walk", spy)
    w = walk(MarkoffQuad.from_values(vals), cell_bound=cell_bound, face_bound=face_bound,
             max_cells=max_cells)
    assert seen == real_walks
    kind = float if real_walks == [True] else complex
    assert all(type(v) is kind for v in w.values)
    assert all(type(p) is kind for p in w.faces.values())


def test_walk_returns_values_in_the_arithmetic_it_ran_in():
    # (4, 4, 4, 4) as a Fuchsian quad and as an integer one: the same
    # cells and faces, floats from the real walk and ints from the exact
    kw = dict(cell_bound=1e4, face_bound=1e6)
    real, exact = walk(Q4, **kw), walk(IntegerQuad(4, 4, 4, 4), **kw)
    assert {type(x) for x in [*real.values, *real.faces.values()]} == {float}
    assert {type(x) for x in [*exact.values, *exact.faces.values()]} == {int}
    assert real == exact


def test_non_sink_walk_matches_reference_at_every_budget(monkeypatch):
    # the rounding root is not a sink, so every walk of it is one complex
    # walk, whether or not it runs out of budget; its fifth cell is 0.0
    loop, seen = curvecomplex._walk, []

    def spy(start, cell_bound, face_bound, max_cells):
        seen.append(type(start[0]) is float)
        return loop(start, cell_bound, face_bound, max_cells)

    monkeypatch.setattr(curvecomplex, "_walk", spy)
    for max_cells in range(5, 60):
        seen.clear()
        _check_against_reference(_ROUNDS_BELOW_ZERO, 10.0, 1e30, max_cells)
        assert seen == [False]


@given(st.integers(0, 2 ** 32), st.one_of(st.none(), st.floats(0, 30)),
       st.one_of(st.none(), st.floats(0, 40)), st.integers(1, 2000))
@settings(max_examples=40, derandomize=True, deadline=None)
def test_walk_matches_reference_on_fuchsian_sinks(seed, log_cell, log_face, max_cells):
    # unperturbed sinks have positive real entries, so these take the
    # real walk: what it returns holds floats only, and the same loop run
    # on the sink's complex values gives them as real parts, with every
    # imaginary part +0.0
    assume(log_cell is not None or log_face is not None)
    sink, _ = reduce_to_sink(sample_fuchsian_quad(random.Random(seed)))
    kw = dict(cell_bound=None if log_cell is None else 10 ** log_cell,
              face_bound=None if log_face is None else 10 ** log_face,
              max_cells=max_cells)
    _check_against_reference(sink.values(), **kw)
    w = walk(sink, **kw)
    assert all(type(v) is float for v in w.values)
    assert all(type(p) is float for p in w.faces.values())
    z = curvecomplex._walk(sink.values(), kw["cell_bound"], kw["face_bound"], max_cells)
    for x, c in [*zip(w.values, z.values), *zip(w.faces.values(), z.faces.values())]:
        assert repr(c.real) == repr(x) and repr(c.imag) == "0.0"
    assert (list(w.faces), w.parents, w.slots, w.nodes_visited, w.budget_hit) == (
        list(z.faces), z.parents, z.slots, z.nodes_visited, z.budget_hit)
