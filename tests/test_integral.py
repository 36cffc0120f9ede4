import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markoffquads import (
    BudgetExceededError,
    DomainError,
    IntegerQuad,
    InvalidQuadError,
    classify,
    enumerate_fundamental,
    enumerate_integral_below,
    flip,
    flips,
    reduce_to_sink,
)
from markoffquads import integral
from markoffquads.quadalgebra import DEFAULT_MAX_STEPS
from helpers import brute_integral_scan, flip_closure_below

# the bounded exhaustive search provably yields these nine; see the
# docstring of enumerate_fundamental for the flip-rigid ninth entry
FUNDAMENTAL = [
    (1, 5, 24, 30), (1, 6, 14, 21), (1, 8, 9, 18), (1, 9, 10, 10),
    (2, 3, 10, 15), (2, 4, 6, 12), (2, 5, 5, 8), (3, 3, 6, 6), (4, 4, 4, 4),
]


def test_integer_quad_validates_exactly():
    IntegerQuad(4, 4, 4, 4)
    IntegerQuad(0, 0, 0, 0)
    with pytest.raises(InvalidQuadError):
        IntegerQuad(1, 1, 1, 1)
    with pytest.raises(DomainError):
        IntegerQuad(-4, 4, 4, 4)
    with pytest.raises(DomainError):
        IntegerQuad(4.0, 4, 4, 4)
    with pytest.raises(DomainError, match="expected 4 entries, got 3"):
        IntegerQuad.from_values((4, 4, 4))


def test_int_flip_examples():
    # flip keeps an IntegerQuad's type, so integer flips stay exact
    assert type(flip(IntegerQuad(4, 4, 4, 4), 4)) is IntegerQuad
    assert flip(IntegerQuad(4, 4, 4, 4), 4).values() == (4, 4, 4, 36)
    q = flip(IntegerQuad(1, 5, 24, 30), 1)
    assert q.values() == (3481, 5, 24, 30)
    assert (3481 + 5 + 24 + 30) ** 2 == 3481 * 5 * 24 * 30
    # involution, exactly
    assert flip(q, 1).values() == (1, 5, 24, 30)
    with pytest.raises(DomainError, match="entry index must be 1..4, got 5"):
        flip(q, 5)


@given(st.sampled_from(FUNDAMENTAL),
       st.lists(st.sampled_from([1, 2, 3, 4]), min_size=0, max_size=8))
@settings(max_examples=150, deadline=None)
def test_flip_words_stay_valid_and_reduce_back(root, word):
    q = IntegerQuad.from_values(root)
    for i in word:
        q = flip(q, i)  # constructor revalidates exactness each step
    reduced, _ = classify(q)
    assert reduced.values() == root


def test_exact_descent_examples():
    # reduce_to_sink keeps an IntegerQuad's type, so integer descents are exact
    sink, word = reduce_to_sink(IntegerQuad(4, 4, 4, 36))
    assert type(sink) is IntegerQuad
    assert sink.values() == (4, 4, 4, 4) and word == [4]
    sink, word = reduce_to_sink(IntegerQuad(3481, 5, 24, 30))
    assert sink.values() == (1, 5, 24, 30) and word == [1]
    sink, word = reduce_to_sink(IntegerQuad(2, 5, 5, 8))
    assert sink.values() == (2, 5, 5, 8) and word == []
    # classify sorts the sink ascending and keeps the word
    assert classify(IntegerQuad(5, 8, 2, 5)) == (IntegerQuad(2, 5, 5, 8), [])
    assert classify(IntegerQuad(4, 4, 36, 4)) == (IntegerQuad(4, 4, 4, 4), [3])
    with pytest.raises(DomainError, match="reduction needs all entries positive"):
        classify(IntegerQuad(0, 0, 0, 0))


def test_exact_descent_confluence_under_permutation():
    rng = random.Random(31)
    for root in FUNDAMENTAL:
        q = IntegerQuad.from_values(root)
        for i in (rng.randint(1, 4) for _ in range(5)):
            q = flip(q, i)
        base, _ = reduce_to_sink(q)
        for perm in itertools.permutations(range(4)):
            shuffled = IntegerQuad.from_values(tuple(q.values()[p] for p in perm))
            got, _ = reduce_to_sink(shuffled)
            assert sorted(got.values()) == sorted(base.values())


@given(st.sampled_from(FUNDAMENTAL), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_exact_descent_returns_the_root_from_past_the_float_range(root, rng):
    # a flip word that never undoes its last flip climbs the tree, so
    # the entries grow until the largest passes 1e300, where float flips
    # overflow or cancel
    q, last = IntegerQuad.from_values(root), 0
    while max(q) <= 10 ** 300:
        last = rng.choice([i for i in (1, 2, 3, 4) if i != last])
        q = flip(q, last)
    sink, _ = reduce_to_sink(q)
    assert tuple(sorted(sink)) == root


def test_exact_descent_has_no_step_cap():
    # the step cap bounds float descents only: a long spiral around the
    # face (1, 5), alternate ascending flips of slots 3 and 4 of
    # (1, 5, 24, 30), descends in more than DEFAULT_MAX_STEPS steps
    vals = [1, 5, 24, 30]
    steps = DEFAULT_MAX_STEPS + 1
    for k in range(steps):
        i = 2 + k % 2
        vals[i] = flips(*vals)[i]
    sink, word = reduce_to_sink(IntegerQuad.from_values(vals))
    assert sink == IntegerQuad(1, 5, 24, 30) and len(word) == steps
    sink, word = reduce_to_sink(IntegerQuad(484, 4, 4, 36))
    assert sink == IntegerQuad(4, 4, 4, 4) and word == [1, 4]


def test_enumerate_fundamental_contents():
    got = [q.values() for q in enumerate_fundamental()]
    assert got == FUNDAMENTAL
    for q in enumerate_fundamental():
        a, b, c, d = q.values()
        assert (a + b + c + d) ** 2 == a * b * c * d
        # reduced: sorted and the largest entry at most the sum of the rest
        assert (a, b, c, d) == tuple(sorted((a, b, c, d)))
        assert d <= a + b + c
        sink, word = reduce_to_sink(q)
        assert sink == q and word == []


def test_fundamental_ninth_orbit_is_disjoint():
    # (2,4,6,12) cannot reach any other root: reduction is strict descent
    # and (2,4,6,12) is flip-rigid (self-flip tie at the max, others grow)
    q = IntegerQuad(2, 4, 6, 12)
    assert flip(q, 4).values() == (2, 4, 6, 12)
    assert flip(q, 3).values()[2] > 6
    assert flip(q, 2).values()[1] > 4
    assert flip(q, 1).values()[0] > 2
    reduced, _ = classify(flip(flip(q, 1), 3))
    assert reduced.values() == (2, 4, 6, 12)


def test_fundamental_search_matches_box_scan():
    # the sinks of a plain scan of a box past every bound of the search
    # (a <= 7, b <= 59, d <= 399) are the nine roots, and each meets
    # the bounds that enumerate_fundamental proves
    scan = brute_integral_scan(399, a_max=7, b_max=59)
    sinks = sorted(v for v in scan if v[3] <= v[0] + v[1] + v[2])
    assert [q.values() for q in enumerate_fundamental()] == sinks
    for a, b, c, d in sinks:
        ab, cmax = a * b, integral._c_max(a, b)
        assert a <= 4 and 4 < ab <= 36
        assert b <= c <= cmax and d <= a + b + c
        # c_max is the largest c with ab c^2 <= 4(a+b+c)^2
        assert ab * cmax ** 2 <= 4 * (a + b + cmax) ** 2
        assert ab * (cmax + 1) ** 2 > 4 * (a + b + cmax + 1) ** 2
    # no positive quad has ab <= 4
    small = brute_integral_scan(300, a_max=4, b_max=4)
    assert small and all(a * b > 4 for a, b, _, _ in small)


def _search_rows(monkeypatch):
    # the (a, b) rows that enumerate_fundamental walks: it calls c_max
    # once at the head of each row, and only for rows it walks
    rows, c_max = set(), integral._c_max

    def spy(a, b):
        rows.add((a, b))
        return c_max(a, b)

    monkeypatch.setattr(integral, "_c_max", spy)
    enumerate_fundamental()
    monkeypatch.undo()
    return rows


@pytest.mark.parametrize("box", ["table", "widened"])
def test_fundamental_search_cap_keeps_every_box_quad(box, monkeypatch):
    # the search stops each (a, b) row at d = a + b + c_max, c_max the
    # largest c with ab c^2 <= 4(a+b+c)^2; a sink of the rows past that
    # cap would be lost here first.  "table" is the rows the search
    # walks, "widened" a box past them in a and b
    if box == "table":
        rows = _search_rows(monkeypatch)
    else:
        rows = {(a, b) for a in range(1, 8) for b in range(a, 60) if a * b > 4}
    for a, b in rows:
        ab, cmax = a * b, integral._c_max(a, b)
        assert ab > 4
        assert ab * cmax ** 2 <= 4 * (a + b + cmax) ** 2
        assert ab * (cmax + 1) ** 2 > 4 * (a + b + cmax + 1) ** 2
    a_max = max(a for a, _ in rows)
    b_max = max(b for _, b in rows)
    sinks = [v for v in brute_integral_scan(399, a_max=a_max, b_max=b_max)
             if v[:2] in rows and v[3] <= v[0] + v[1] + v[2]]
    assert sinks
    for a, b, c, d in sinks:
        assert d <= a + b + integral._c_max(a, b)


def test_search_bounds_rederivation(monkeypatch):
    # the search walks every row b >= a with 4 < ab <= 36 for a <= 4,
    # and no other: b from max(a, ceil(5/a)) to 36 // a
    derived = {(a, b) for a in range(1, 5) for b in range(a, 37) if 4 < a * b <= 36}
    assert _search_rows(monkeypatch) == derived
    # ab <= 36 follows from c_max: with b <= c <= c_max, ab c^2 <=
    # 4(a+b+c)^2 <= 36 c^2, so a row b >= a with ab > 36 has c_max < b
    for a in range(1, 37):
        for b in range(max(a, 36 // a + 1), 200):
            assert integral._c_max(a, b) < b
    # ab > 4: (a+b+c+d)^2 > (c+d)^2 >= 4cd >= abcd, so no positive quad
    # with ab <= 4 exists
    for a, b in [(1, 1), (1, 2), (1, 3), (1, 4), (2, 2)]:
        for c in range(b, 60):
            for d in range(c, 60):
                assert (a + b + c + d) ** 2 > a * b * c * d


def test_classify_examples():
    root, word = classify(IntegerQuad(4, 4, 4, 36))
    assert root.values() == (4, 4, 4, 4) and word == [4]
    root, _ = classify(IntegerQuad(3481, 5, 24, 30))
    assert root.values() == (1, 5, 24, 30)
    root, word = classify(IntegerQuad(3, 3, 6, 6))
    assert root.values() == (3, 3, 6, 6) and word == []


def test_search_box_predicate_matches_search():
    # every valid ascending quad with a <= 7, b < 60, d < 400: the 41
    # positive ones and (0, 0, 0, 0), which IntegerQuad admits
    quads = sorted(brute_integral_scan(399, a_max=7, b_max=59)) + [(0, 0, 0, 0)]
    assert len(quads) == 42
    table = {r.values() for r in enumerate_fundamental()}
    assert table <= set(quads)
    for v in quads:
        IntegerQuad.from_values(v)
        assert integral._in_search_box(*v) == (v in table), v


def test_classify_does_not_run_the_search(monkeypatch):
    def no_search():
        raise AssertionError("classify ran the fundamental-quad search")

    monkeypatch.setattr(integral, "enumerate_fundamental", no_search)
    for root in FUNDAMENTAL:
        for i in (1, 2, 3, 4):
            q = flip(flip(IntegerQuad.from_values(root), i), 5 - i)
            assert classify(q)[0].values() == root


def test_classify_rejects_a_root_outside_the_box(monkeypatch):
    # with c_max below b at a = 4, (4, 4, 4, 4) no longer meets the bounds
    c_max = integral._c_max
    monkeypatch.setattr(integral, "_c_max", lambda a, b: 0 if a == 4 else c_max(a, b))
    assert classify(IntegerQuad(2, 5, 5, 8))[0].values() == (2, 5, 5, 8)
    with pytest.raises(InvalidQuadError, match=r"\(4, 4, 4, 4\) is not a fundamental quad"):
        classify(IntegerQuad(4, 4, 4, 36))


def test_enumerate_integral_below_examples():
    only = enumerate_integral_below(4)
    assert [q.values() for q in only] == [(4, 4, 4, 4)]
    vals = {q.values() for q in enumerate_integral_below(36)}
    for root in FUNDAMENTAL:
        assert root in vals
    assert (4, 4, 4, 36) in vals
    with pytest.raises(DomainError):
        enumerate_integral_below(3)


def test_enumerate_integral_below_budget():
    n = len(enumerate_integral_below(10 ** 6))
    assert len(enumerate_integral_below(10 ** 6, max_cells=n)) == n
    with pytest.raises(BudgetExceededError):
        enumerate_integral_below(10 ** 6, max_cells=n - 1)
    # a bound this large would otherwise run out of memory, not finish
    with pytest.raises(BudgetExceededError):
        enumerate_integral_below(10 ** 200, max_cells=10)


def test_integer_quad_count_grows_by_between_4_and_8_when_b_is_squared():
    # a count N(B) ~ (log B)^beta of integer quads with largest entry <= B
    # gives N(B^2) / N(B) ~ 2^beta: exact counts at B = 1e10 .. 1e80 keep
    # the ratio strictly between 4 and 8, so 2 < beta < 3 at these B
    counts = [len(enumerate_integral_below(10 ** e)) for e in (10, 20, 40, 80)]
    for n, n_squared in zip(counts, counts[1:]):
        assert 4 * n < n_squared < 8 * n


def test_ascending_flips_pass_the_largest_entry():
    # the lemma behind enumerate_integral_below: a flip that ascends
    # exceeds the largest entry, the three smaller entries' flips always
    # ascend, and every quad but a root has one descending flip, in slot 4,
    # so only a root can ascend in slot 4
    roots = {q.values() for q in enumerate_fundamental()}
    quads = enumerate_integral_below(10 ** 40)
    assert len(quads) == 26_081
    for q in quads:
        new = flips(*q)
        for old, v in zip(q, new):
            if v > old:
                assert v > q.d
        assert all(v > old for old, v in zip(q[:3], new[:3]))
        assert sum(v < old for old, v in zip(q, new)) == (q.values() not in roots)
        assert (new[3] < q.d) == (q.values() not in roots)


@pytest.mark.parametrize("B", [10 ** 12, 10 ** 30, 10 ** 60], ids=["1e12", "1e30", "1e60"])
def test_enumerate_integral_matches_the_all_flip_closure(B):
    quads = enumerate_integral_below(B)
    assert [q.values() for q in quads] == flip_closure_below(FUNDAMENTAL, B, 200_000)
    assert all(type(q) is IntegerQuad for q in quads)


def test_enumerate_integral_raises_where_the_all_flip_closure_does():
    B = 10 ** 20
    n = len(flip_closure_below(FUNDAMENTAL, B, 200_000))
    assert [q.values() for q in enumerate_integral_below(B, max_cells=n)] \
        == flip_closure_below(FUNDAMENTAL, B, n)
    with pytest.raises(BudgetExceededError) as oracle:
        flip_closure_below(FUNDAMENTAL, B, n - 1)
    with pytest.raises(BudgetExceededError) as ours:
        enumerate_integral_below(B, max_cells=n - 1)
    assert str(ours.value) == str(oracle.value)


def test_flips_fall_in_slot_order_and_only_tied_slots_share_a_child():
    # what the tree walk rests on: at an ascending quad v1 >= v2 >= v3 >= v4,
    # so v3 past B rules out slots 1 and 2, and two slots make one child
    # exactly when their entries tie, so a vertex skips the later one
    for q in enumerate_integral_below(10 ** 40):
        new = flips(*q)
        assert new[0] >= new[1] >= new[2] >= new[3]
        children = [tuple(sorted(q[:k] + (v,) + q[k + 1:])) for k, v in enumerate(new)]
        for k in range(3):
            assert (children[k] == children[k + 1]) == (q[k] == q[k + 1])


def _quads_or_message(enumerate_below, *args):
    try:
        return [tuple(q) for q in enumerate_below(*args)]
    except BudgetExceededError as exc:
        return str(exc)


@pytest.mark.parametrize("B", [36, 10 ** 4, 10 ** 12], ids=["36", "1e4", "1e12"])
def test_tree_walk_matches_the_all_flip_closure_at_every_budget(B):
    # tie-heavy bounds (12, 103 and 1,411 quads): the walk keeps no set of
    # the quads seen, yet lists each once and runs out of budget where the
    # all-flip closure does, with its message
    n_all = len(flip_closure_below(FUNDAMENTAL, B, 200_000))
    for n in [*range(81), n_all - 1, n_all]:
        ours = _quads_or_message(enumerate_integral_below, B, n)
        assert ours == _quads_or_message(flip_closure_below, FUNDAMENTAL, B, n)
        if isinstance(ours, list):
            assert len(set(ours)) == len(ours)


def test_enumerate_integral_matches_brute_scan():
    for B in (40, 120, 500):
        ours = {q.values() for q in enumerate_integral_below(B)}
        brute = brute_integral_scan(B)
        assert ours == brute


def test_no_floats_anywhere():
    for q in enumerate_integral_below(100):
        assert all(type(v) is int for v in q.values())
