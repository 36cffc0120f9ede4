import cmath
import math
import random
import re

import pytest

from markoffquads import (
    BqViolationError,
    BranchCutError,
    BudgetExceededError,
    DomainError,
    IntegerQuad,
    InvalidQuadError,
    MarkoffQuad,
    Verdict,
    check_bq,
    finite_tree_psi_sum,
    flip,
    h,
    mcshane,
    mcshane_partial,
    mcshane_verify,
    psi,
    reduce_to_sink,
    sample_fuchsian_quad,
    two_sided_length,
    walk,
)
from helpers import (
    DEEP_VIOLATION,
    NO_SINK,
    around,
    perturb_quad,
    random_subtree,
    value_bits_or_error,
)
from markoffquads.mcshane import BRANCH_TOL, DEFAULT_MAX_CELLS, DEFAULT_TOL
from markoffquads.quadalgebra import _segment_distance

Q4 = MarkoffQuad(4, 4, 4, 4)


def _h_oracle(x):
    # direct principal-branch evaluation
    return (1 - cmath.sqrt(1 - 4 / complex(x))) / 2


def test_h_examples():
    assert h(16) == pytest.approx((1 - math.sqrt(3) / 2) / 2, abs=1e-15)
    assert h(16) == pytest.approx(0.0669872981077806, abs=1e-12)
    assert h(-4) == pytest.approx((1 - math.sqrt(2)) / 2, abs=1e-15)
    assert abs(h(1e8) * 1e8 - 1) < 1e-7
    for x in (16, -4, 100, 4.5, -0.5 + 2j, 1e8):
        assert h(x) == pytest.approx(_h_oracle(x), abs=1e-12)


def test_h_branch_cut_rejection():
    for bad in (0, 2, 4, 3.9999999999, 2 + 1e-12j):
        with pytest.raises(BranchCutError):
            h(bad)
    # just outside the guard band is accepted
    assert h(2 + 1e-6j) is not None
    assert h(-1e-6) is not None


def _h_always_testing_the_cut(x):
    # h with the distance to the cut computed for every input; a modulus
    # past the float range is a DomainError, as in h
    x = complex(x)
    try:
        distance = _segment_distance(x, 0.0, 4.0)
    except OverflowError:
        raise DomainError(f"modulus of {x} out of float range") from None
    if distance <= BRANCH_TOL:
        raise BranchCutError(f"{x} within {BRANCH_TOL:g} of the cut [0,4]")
    s = cmath.sqrt(1 - 4 / x)
    if abs(x) > 8:
        return 2 / (x * (1 + s))
    return (1 - s) / 2


# |x| at 8 and 4 and one ulp either side, in four directions; points on
# the cut, within 1e-9 of it, and 0.4, 0.9, 3.9 and 9.9 from it, some
# of them with |x| > 8; NaN, infinite and overflowing inputs
_H_POINTS = [u * r for r in (*around(8.0), *around(4.0)) for u in (1, -1, 1j, -1j)] + [
    0, 1e-300, 2, 4, 4 - 1e-12, 4 + 0.5e-9, 2 + 0.5e-9j, -0.5e-9, 4.4, 4.9, 7.9, 13.9,
    -0.4, -3.9, 2 + 9.9j, 8.5j, complex(math.nextafter(8.0, math.inf), 0.25),
    math.nan, math.inf, -math.inf, complex(math.nan, math.inf), complex(math.inf, math.nan),
    complex(2, math.nan), complex(math.nan, 0), complex(1.5e308, 1.5e308),
    complex(-1.5e308, 1.5e308),
]


def test_h_far_from_the_cut_skips_only_a_test_that_passes():
    # where |x| > 8 h leaves out the distance to the cut; every value and
    # error stays the same bit for bit
    for x in _H_POINTS:
        assert value_bits_or_error(h, x) == value_bits_or_error(_h_always_testing_the_cut, x), x


def test_one_cut_for_h_and_two_sided_length():
    # h's cut [0, 4] and two_sided_length's [-2, 2] are one cut at one
    # width: on it, 0.5e-9 from it and 1e-6 from it, p is rejected by h
    # exactly when its trace p - 2 is
    def rejects(fn, x):
        try:
            fn(x)
        except BranchCutError:
            return True
        return False

    points = [t + u * r for t in (0, 1, 2, 3.5, 4) for r in (0, 0.5e-9, 1e-6)
              for u in (1j, -1j)]
    points += [-0.5e-9, 4 + 0.5e-9, -1e-6, 4 + 1e-6]
    for p in points:
        assert rejects(h, p) == rejects(two_sided_length, p - 2), p
    assert [rejects(h, p) for p in (0, -0.5e-9, -1e-6, 2 + 1e-6j)] == [True, True, False, False]


def test_psi_examples():
    for i in (1, 2, 3, 4):
        assert psi(Q4, i) == pytest.approx(0.25)
    assert sum(psi(Q4, i) for i in (1, 2, 3, 4)) == pytest.approx(1.0)
    # opposite orientations across an edge sum to 1
    assert psi(Q4, 4) + psi(flip(Q4, 4), 4) == pytest.approx(1.0)


def test_psi_edge_and_vertex_relations_random():
    rng = random.Random(13)
    for _ in range(50):
        q = sample_fuchsian_quad(rng)
        total = sum(psi(q, i) for i in (1, 2, 3, 4))
        assert abs(total - 1) <= 1e-12
        for i in (1, 2, 3, 4):
            assert abs(psi(q, i) + psi(flip(q, i), i) - 1) <= 1e-12


def test_psi_rejects_broken_quad():
    with pytest.raises((InvalidQuadError, DomainError)):
        psi(MarkoffQuad(1, 1, 1, 1), 1)
    with pytest.raises(DomainError, match="psi undefined: zero entry sum"):
        psi(MarkoffQuad(0, 0, 0, 0), 1)
    # an index outside 1..4 picks no entry; 0 once read slot 4's weight
    for i in (0, 5):
        with pytest.raises(DomainError, match=f"entry index must be 1..4, got {i}"):
            psi(MarkoffQuad(4, 4, 4, 36), i)


def test_check_bq_examples():
    rep = check_bq(Q4, 16)
    assert len(rep.violations) == 0
    assert rep.budget_hit is False
    assert rep.ok
    rep = check_bq(MarkoffQuad(0, 0, 0, 0), 4)
    assert len(rep.violations) > 0
    assert not rep.ok
    rep = check_bq(MarkoffQuad(2, 5, 5, 8), 10)
    assert len(rep.violations) == 0
    # the (2,5) face has product exactly 10; it is enumerated at k=10
    # via the faces listing of the exploration (10 > 4 so not in faces4)
    assert all(abs(f.product) <= 4 for f in rep.faces4)


def test_mcshane_partial_examples():
    rep = mcshane_partial(Q4, 16)
    assert rep.term_count == 6
    assert rep.partial_sum == pytest.approx(6 * _h_oracle(16), abs=1e-12)
    rep = mcshane_partial(Q4, 144)
    assert rep.term_count == 18
    expected = 6 * _h_oracle(16) + 12 * _h_oracle(144)
    assert rep.partial_sum == pytest.approx(expected, abs=1e-12)
    rep = mcshane_partial(Q4, 15)
    assert rep.term_count == 0
    assert rep.partial_sum == 0


def test_relation_tol_reaches_the_summability_pre_pass():
    # residual 1.25e-5: rejected at the default relation tol, accepted at 1e-3
    q = MarkoffQuad(4, 4, 4, 4.0001)
    for call in (lambda **kw: check_bq(q, 10, **kw),
                 lambda **kw: mcshane_partial(q, 100, **kw),
                 lambda **kw: mcshane_verify(q, 1e-2, **kw)):
        with pytest.raises(InvalidQuadError):
            call()
    assert check_bq(q, 10, tol=1e-3).ok
    assert mcshane_partial(q, 100, tol=1e-3).term_count == 6
    assert mcshane_verify(q, 1e-2, tol=1e-3)[0]


_DEEP_VIOLATION = MarkoffQuad(*DEEP_VIOLATION)


def test_mcshane_partial_rejects_bq_violation():
    with pytest.raises(BqViolationError):
        mcshane_partial(MarkoffQuad(0, 0, 0, 0), 100)
    message = r"face product \(3\.005697454937217\+0j\) lies in \[0,4\]; sum undefined"
    with pytest.raises(BqViolationError, match=message):
        mcshane_partial(_DEEP_VIOLATION, 1e6, max_cells=20000)
    with pytest.raises(BqViolationError, match=message):
        mcshane_verify(_DEEP_VIOLATION, 1e-3, max_cells=20000)


def _check_budgets(monkeypatch):
    # the max_cells of each walk mcshane makes from here on, in order
    budgets = []
    real_walk = mcshane.walk

    def counting_walk(*args, **kwargs):
        budgets.append(kwargs["max_cells"])
        return real_walk(*args, **kwargs)

    monkeypatch.setattr(mcshane, "walk", counting_walk)
    return budgets


def test_root_face_violation_raises_in_the_walk_of_the_root_cells(monkeypatch):
    # the sink's six faces are the check's first walk, of the root's four
    # cells: a violation among them raises there, and no budget is spent
    budgets = _check_budgets(monkeypatch)

    def raises_in_one_walk(call, message):
        budgets.clear()
        with pytest.raises(BqViolationError, match=message):
            call()
        assert budgets == [4]

    for vals in ((0, 0, 0, 0), (0, 1, 2, -3), (0.0, 1, 2, -3)):
        q = MarkoffQuad.from_values(vals)
        message = r"face product 0j lies in \[0,4\]"
        raises_in_one_walk(lambda: mcshane_partial(q, 10), message)
        raises_in_one_walk(lambda: mcshane_verify(q, 1e-3), message)
    # a violating face away from cell 0, (1, 2), is among the six
    q = MarkoffQuad.from_values((8, 1, 1, -6 - 8j))
    message = r"face product \(1\+0j\) lies in \[0,4\]"
    raises_in_one_walk(lambda: mcshane_partial(q, 10, max_cells=2000), message)
    raises_in_one_walk(lambda: mcshane_verify(q, 1e-3), message)
    # an invalid quad is still reported as invalid first
    with pytest.raises(InvalidQuadError):
        mcshane_partial(MarkoffQuad(0, 0, 0, 1), 10)


def test_mcshane_monotone_bounded():
    prev = 0.0
    for cutoff in (16, 144, 2000, 2e4, 2e5):
        rep = mcshane_partial(Q4, cutoff)
        s = rep.partial_sum
        assert abs(s.imag) <= 1e-15
        assert s.real > prev
        assert s.real <= 0.5 + 1e-12
        prev = s.real


def test_mcshane_verify_fundamental():
    for vals in ((4, 4, 4, 4), (1, 5, 24, 30)):
        ok, rep = mcshane_verify(MarkoffQuad.from_values(vals), 1e-3)
        assert ok
        assert rep.verdict is Verdict.CONVERGED
        assert abs(rep.partial_sum - 0.5) <= 1e-3


def test_mcshane_verify_perturbed_complex():
    rng = random.Random(4)
    base = sample_fuchsian_quad(rng)
    vals = perturb_quad(base.values(), rng, scale=1e-3)
    q = MarkoffQuad.from_values(vals)
    rep = check_bq(q, 4)
    assert rep.ok
    ok, report = mcshane_verify(q, 1e-3)
    assert ok
    assert abs(report.partial_sum - 0.5) <= 1e-3


def test_finite_tree_psi_sum_examples():
    # single vertex: four incoming edges
    assert finite_tree_psi_sum(Q4, [()]) == pytest.approx(1.0, abs=1e-15)
    # a single edge: six incoming edges
    assert finite_tree_psi_sum(Q4, [(), (4,)]) == pytest.approx(1.0, abs=1e-12)
    # ball of radius 2
    words = [()]
    words += [(i,) for i in range(1, 5)]
    for i in range(1, 5):
        words += [(i, j) for j in range(1, 5) if j != i]
    assert finite_tree_psi_sum(Q4, words) == pytest.approx(1.0, abs=1e-10)


def test_finite_tree_psi_sum_validation():
    with pytest.raises(DomainError):
        finite_tree_psi_sum(Q4, [(4,)])  # missing root
    with pytest.raises(DomainError):
        finite_tree_psi_sum(Q4, [(), (1, 2)])  # disconnected
    with pytest.raises(DomainError):
        finite_tree_psi_sum(Q4, [(), (1,), (1, 1)])  # backtracking word


def test_finite_tree_psi_sum_random_subtrees():
    rng = random.Random(17)
    for _ in range(5):
        q = sample_fuchsian_quad(rng)
        for _ in range(10):
            words = random_subtree(rng, rng.randint(1, 12))
            assert abs(finite_tree_psi_sum(q, words) - 1) <= 1e-10


def test_two_forms_agree_per_term():
    # h(ab) = 1/(1 + exp(l/2)) with l = 2 acosh((ab-2)/2)
    rng = random.Random(27)
    for _ in range(100):
        ab = 4.0 + 100.0 * rng.random() ** 2
        ell = 2 * cmath.acosh((ab - 2) / 2)
        assert abs(h(ab) - 1 / (1 + cmath.exp(ell / 2))) <= 1e-12


def test_mcshane_verify_cross_checks_the_summed_terms(monkeypatch):
    # the geometric cross-check compares the very terms that were summed
    import markoffquads.mcshane as mcshane

    exact_h = mcshane.h
    monkeypatch.setattr(mcshane, "h", lambda x: exact_h(x) * (1 + 1e-6))
    with pytest.raises(InvalidQuadError, match="h and geometric forms disagree"):
        mcshane_verify(Q4, 1e-3)


def test_bq_enumeration_reaches_product_ten_face():
    # at k = 10 the (2,5) pair of (2,5,5,8) is inside the enumerated set
    faces = walk(MarkoffQuad(2, 5, 5, 8), face_bound=10).faces
    assert any(abs(p - 10) <= 1e-12 for p in faces.values())


def test_nan_bounds_raise_before_walking():
    # max(nan, 4.0) is nan, and a NaN bound would record no face: 0,0,0,0
    # would pass the check, and the sum would have no terms
    for q in (MarkoffQuad(0, 0, 0, 0), Q4):
        with pytest.raises(DomainError, match="must not be NaN"):
            check_bq(q, k=math.nan)
    with pytest.raises(DomainError, match="must not be NaN"):
        mcshane_partial(Q4, math.nan)


def test_check_bq_rejects_what_h_rejects():
    # face (0, 1) has product 4.0000000005: past faces4, yet within
    # BRANCH_TOL of the cut, so h rejects it and check_bq reports it
    q = MarkoffQuad(2.0, 2.00000000025, 1 + 1j, -1.1796405576775428 - 3.394736453993022j)
    with pytest.raises(BranchCutError):
        h(4.0000000005)
    rep = check_bq(q, 10)
    assert [f.cells for f in rep.faces4] == [(0, 2), (1, 2)]
    assert rep.violations == (((0, 1), 4.0000000005 + 0j),) and not rep.ok
    with pytest.raises(BqViolationError, match=r"face product \(4.0000000005\+0j\)"):
        mcshane_partial(q, 100)


def test_check_bq_truncates_on_budget():
    rep = check_bq(MarkoffQuad(0, 0, 0, 0), 4, max_cells=60)
    assert rep.budget_hit
    assert not rep.ok


# face (0, 4) has product 4.0000000005: NEAR_CUT's face (0, 1), moved to
# cell 4 by flipping slot 2, so only a walk finds it
_NEAR_CUT_FLIPPED = MarkoffQuad(2.0, -1.2105270922639564 - 4.3592811153550866j, 1 + 1j,
                                -1.1796405576775428 - 3.394736453993022j)


def test_check_bq_walks_past_4_to_the_width_of_the_cut():
    rep = check_bq(_NEAR_CUT_FLIPPED, 4)
    assert rep.cutoff == 4.0
    assert rep.violations == (((0, 4), 4.0000000005 + 0j),) and not rep.ok
    assert [f.cells for f in rep.faces4] == [(0, 2), (2, 4)]
    for cutoff in (4, 100):
        with pytest.raises(BqViolationError, match=r"face product \(4.0000000005\+0j\)"):
            mcshane_partial(_NEAR_CUT_FLIPPED, cutoff)


def _sink_and_near_it(seed):
    # a Fuchsian sink, and a quasi-Fuchsian quad near it
    rng = random.Random(seed)
    sink, _ = reduce_to_sink(sample_fuchsian_quad(rng))
    return [sink, MarkoffQuad.from_values(perturb_quad(sink.values(), rng, scale=1e-2))]


@pytest.mark.parametrize("q", [*_sink_and_near_it(1), *_sink_and_near_it(2),
                               IntegerQuad(4, 4, 4, 36)],
                         ids=["fuchsian-1", "quasi-fuchsian-1", "fuchsian-2",
                              "quasi-fuchsian-2", "integer"])
def test_mcshane_does_not_depend_on_the_root(q):
    # every sum walks from the sink and adds its terms with fsum, so
    # roots with one sink give one report.  A float flip and the descent
    # back may round the sink's low bits differently; from such a sink
    # the faces are the same and the sum agrees to rounding
    sink = reduce_to_sink(q)[0]
    for cutoff in (1e2, 1e8):
        rep = mcshane_partial(q, cutoff)
        assert mcshane_partial(sink, cutoff) == rep
        for i in range(1, 5):
            root = flip(q, i)
            other = mcshane_partial(root, cutoff)
            if isinstance(q, IntegerQuad) or reduce_to_sink(root)[0] == sink:
                assert other == rep
            else:
                assert other.term_count == rep.term_count
                assert abs(other.partial_sum - rep.partial_sum) <= 1e-10


# a complex quad whose check walks from the sink find no face product in
# [0, 4] and are all cut, at 2,000 cells and at the default budget
_NO_WITNESS = MarkoffQuad(-1.5722122374486518 + 0.26537535177571137j,
                          -0.7802690007115247 + 0.6235202315771669j,
                          0.7543218246483239 - 2.6068268445611213j,
                          2.213108155548852 - 1.7000553554124749j)
# a positive sink, walked in floats, whose face (0, 1) has product
# 4.0000000005, within BRANCH_TOL of the cut; its flip of slot 4 ties
_TIED_NEAR_CUT = MarkoffQuad(2.0, 2.00000000025, 31999997354.308346, 31999997358.308346)


@pytest.mark.parametrize("q, max_cells, budgets, product", [
    (MarkoffQuad(0, 0, 0, 0), 2000, [4], "0j"),
    (MarkoffQuad(0, 1, 2, -3), 2000, [4], "0j"),
    (MarkoffQuad.from_values((0.0, 1, 2, -3)), 2000, [4], "0j"),
    (MarkoffQuad(8, 1, 1, -6 - 8j), 2000, [4], "(1+0j)"),
    (_DEEP_VIOLATION, DEFAULT_MAX_CELLS, [4, 16], "(3.005697454937217+0j)"),
    (_DEEP_VIOLATION, 2000, [4, 16], "(3.005697454937217+0j)"),
    (_TIED_NEAR_CUT, 2000, [4], "4.0000000005"),
    *[(q, DEFAULT_MAX_CELLS, [4], None) for seed in (1, 2, 5) for q in _sink_and_near_it(seed)],
    (_NO_WITNESS, 2000, [4, 16, 64, 256, 2000], None),
], ids=["zero", "zero-entries", "zero-entries-float", "root-face-1-2", "deep-default",
        "deep-2000", "tied-near-cut", "fuchsian-1", "quasi-fuchsian-1", "fuchsian-2",
        "quasi-fuchsian-2", "fuchsian-5", "quasi-fuchsian-5", "no-witness"])
def test_the_check_stops_at_its_first_witness_with_the_full_checks_decision(
        monkeypatch, q, max_cells, budgets, product):
    # the check walks at budgets 4, 16, ... and max_cells, and stops at
    # the first walk with a violation or that is complete; it raises
    # exactly when one check_bq at max_cells has a violation
    sink = reduce_to_sink(q)[0]
    full = check_bq(sink, 4.0, max_cells=max_cells)
    walked = _check_budgets(monkeypatch)
    if product is None:
        assert mcshane._summable_sink(q, max_cells, DEFAULT_TOL) == sink
        assert not full.violations
        # the last walk is complete, or it is the full one
        assert full.budget_hit == (budgets[-1] == max_cells)
    else:
        message = f"face product {product} lies in [0,4]; sum undefined"
        with pytest.raises(BqViolationError, match=re.escape(message)):
            mcshane._summable_sink(q, max_cells, DEFAULT_TOL)
        assert product in [str(f.product) for f in full.violations]
    assert walked == budgets


def test_fsum_matches_a_high_precision_sum():
    # the 78 terms of `mcshane 4,4,4,4 --target-tol 1e-3`, summed exactly
    # in 50 digits and rounded once, are what fsum returns
    mpmath = pytest.importorskip("mpmath")
    terms = [h(p) for p in walk(Q4, face_bound=1e5).faces.values()]
    report = mcshane._partial(Q4, 1e5, 200_000, 1e-9, 1e-3)
    assert report.term_count == len(terms) == 78
    with mpmath.workdps(50):
        re = mpmath.fsum(mpmath.mpf(t.real) for t in terms)
        im = mpmath.fsum(mpmath.mpf(t.imag) for t in terms)
    assert report.partial_sum == complex(float(re), float(im))
    assert mcshane_verify(Q4, 1e-3)[1] == report


def test_a_quad_with_no_sink_raises_before_summing(capsys, monkeypatch):
    # its descent runs past the step cap: the sum raises, as the spectra
    # do, and the descent runs first, so no walk spends the budget
    def refuse(*args, **kwargs):
        raise AssertionError("walked")

    monkeypatch.setattr(mcshane, "walk", refuse)
    from markoffquads.cli import main, parse_quad
    q = parse_quad(NO_SINK)
    with pytest.raises(BudgetExceededError, match="no sink within 10000 flips"):
        mcshane_partial(q, 100)
    with pytest.raises(BudgetExceededError, match="no sink within 10000 flips"):
        mcshane_verify(q, 1e-3)
    assert main(["mcshane", NO_SINK, "--cutoff", "100"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("mql: budget exhausted: no sink within 10000 flips")


@pytest.mark.parametrize("q", [IntegerQuad(484, 4, 4, 36), MarkoffQuad(484, 4, 4, 36),
                               *_sink_and_near_it(3)],
                         ids=["integer", "float", "fuchsian-3", "quasi-fuchsian-3"])
def test_every_mcshane_walk_starts_at_the_sink(monkeypatch, q):
    # the descent runs first; the summability check and every sum then
    # walk from its sink, in q's own type
    events = []
    real_reduce, real_walk = mcshane.reduce_to_sink, mcshane.walk

    def spy_reduce(quad, **kwargs):
        events.append(("descent", quad))
        return real_reduce(quad, **kwargs)

    def spy_walk(quad, **kwargs):
        events.append(("walk", quad))
        return real_walk(quad, **kwargs)

    monkeypatch.setattr(mcshane, "reduce_to_sink", spy_reduce)
    monkeypatch.setattr(mcshane, "walk", spy_walk)
    sink = real_reduce(q)[0]
    for run in (lambda: mcshane_partial(q, 1e4), lambda: mcshane_verify(q, 1e-3)):
        events.clear()
        run()
        assert events[0] == ("descent", q)
        assert len(events) >= 3 and events[1:] == [("walk", sink)] * (len(events) - 1)
        assert all(type(quad) is type(q) for _, quad in events)


def test_mcshane_reports_a_spent_budget_and_an_unfinished_schedule():
    # the reports behind the three exit-3 paths of `mql mcshane`
    q = IntegerQuad(4, 4, 4, 4)
    rep = mcshane_partial(q, 1e40, max_cells=100)
    assert (rep.verdict, rep.term_count, rep.product_cutoff) == \
        (Verdict.BUDGET_EXCEEDED, 99, 1e40)
    passed, rep = mcshane_verify(q, 1e-6, max_cells=100)
    assert passed is False
    assert (rep.verdict, rep.term_count, rep.product_cutoff) == \
        (Verdict.BUDGET_EXCEEDED, 135, 1e8)
    # the schedule ends at 1e8 before the sum is within 1e-12 of 1/2
    passed, rep = mcshane_verify(q, 1e-12)
    assert passed is False
    assert (rep.verdict, rep.term_count, rep.product_cutoff) == (Verdict.PARTIAL, 282, 1e8)
    assert 1e-12 < abs(rep.partial_sum - 0.5) < 1e-6
