import math
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from markoffquads import (
    DEFAULT_TOL,
    BranchCutError,
    BudgetExceededError,
    CurveKind,
    DegenerateClassError,
    DomainError,
    IntegerQuad,
    MarkoffQuad,
    SpectrumEntry,
    count_s,
    enumerate_fundamental,
    fit_power_law,
    flip_value,
    growth_exponent,
    klein_sequence,
    mcg_apply,
    one_sided_length,
    one_sided_spectrum,
    reduce_to_sink,
    sample_fuchsian_quad,
    spectra,
    systole,
    two_sided_length,
    two_sided_spectrum,
    walk,
)
from markoffquads.quadalgebra import DEFAULT_MAX_CELLS
from helpers import (completion_roots, exact_cells_below, perturb_quad,
                     unpruned_count_below_length)

Q4 = MarkoffQuad(4, 4, 4, 4)


def test_one_sided_spectrum_examples():
    entries = one_sided_spectrum(Q4, 3.0)
    assert len(entries) == 4
    for e in entries:
        assert e.kind is CurveKind.ONE_SIDED
        assert e.length == pytest.approx(2 * math.asinh(2), abs=1e-12)
    assert one_sided_spectrum(Q4, 2.8) == []
    entries = one_sided_spectrum(Q4, 8.0)
    assert len(entries) == 8
    long_ones = [e for e in entries if abs(e.trace - 36) < 1e-9]
    assert len(long_ones) == 4
    for e in long_ones:
        assert e.length == pytest.approx(2 * math.asinh(18), abs=1e-12)


def test_one_sided_spectrum_sorted_and_consistent():
    entries = one_sided_spectrum(Q4, 14.0)
    lens = [abs(e.length) for e in entries]
    assert lens == sorted(lens)
    for e in entries:
        # trace = 2 sinh(length/2)
        import cmath

        assert abs(2 * cmath.sinh(e.length / 2) - e.trace) <= 1e-9


# (3+0.1i, 4-0.2i, 5) completed with the larger root: no two lengths tie
QF = MarkoffQuad(3 + 0.1j, 4 - 0.2j, 5, 31.53524324467945 - 0.8464138978268095j)
# the flip of the first entry gives 12 again, so lengths recur one level
# deeper, where word order differs from discovery order
RIGID = MarkoffQuad(12, 4, 6, 2)


def _walk(q, **bounds):
    sink, _ = reduce_to_sink(q)
    return walk(sink, **bounds)


@pytest.mark.parametrize("q, L", [(Q4, 14.0), (QF, 12.0), (RIGID, 14.0)])
def test_one_sided_spectrum_order_matches_walk(q, L):
    bound = 2 * math.sinh(L / 2)
    w = _walk(q, cell_bound=bound)
    want = []
    for k, (value, word) in enumerate(zip(w.values, w.words())):
        if abs(value) <= bound:
            ell = one_sided_length(value)
            if abs(ell) < L:
                want.append(SpectrumEntry(CurveKind.ONE_SIDED, value, ell, k, word))
    want.sort(key=lambda e: (abs(e.length), e.word, e.cell_ref))
    assert one_sided_spectrum(q, L) == want
    assert count_s(q, L) == len(want)


_WORDS = st.lists(st.integers(1, 4), max_size=10).map(tuple)


@given(_WORDS, _WORDS)
def test_word_texts_sort_as_words(u, v):
    # the CLI sorts its rows by word text: a slot is one digit, so the
    # texts compare as the words do
    tu, tv = ",".join(map(str, u)), ",".join(map(str, v))
    assert (tu < tv, tu == tv) == (u < v, u == v)


@pytest.mark.parametrize("q, L", [(IntegerQuad(4, 4, 4, 4), 300), (QF, 12.0), (RIGID, 14.0)])
def test_rows_sorted_by_text_are_rows_sorted_by_word(q, L):
    # one to one, on walks with many ties in |l| (24 at a time at 4,4,4,4)
    one = CurveKind.ONE_SIDED
    texts = spectra._spectrum_rows(q, L, one, DEFAULT_MAX_CELLS, DEFAULT_TOL, texts=True)
    words = spectra._spectrum_rows(q, L, one, DEFAULT_MAX_CELLS, DEFAULT_TOL)
    assert len(texts) == len(words) > 0
    assert [(a, tuple(map(int, t.split(","))) if t else (), *rest)
            for a, t, *rest in texts] == words
    w = _walk(q, cell_bound=2 * math.sinh(L / 2))
    assert spectra._word_texts(w) == [",".join(map(str, word)) for word in w.words()]


@pytest.mark.parametrize("q, L", [(Q4, 9.0), (QF, 9.0), (RIGID, 9.0)])
def test_two_sided_spectrum_order_matches_walk(q, L):
    want = []
    for pair, product in _walk(q, face_bound=2 * math.cosh(L / 2) + 2).faces.items():
        e = product - 2
        ell = two_sided_length(e)
        if abs(ell) < L:
            want.append(SpectrumEntry(CurveKind.TWO_SIDED, e, ell, pair, None))
    want.sort(key=lambda e: (abs(e.length), e.cell_ref))
    assert two_sided_spectrum(q, L) == want


# 24 cells of (4,4,4,4) have the exact trace T_EXACT, just above the
# trace bound of L_CROSS; a float walk of the same quad rounds each of
# them to F_TWIN, just below it
L_CROSS = 137.59186279079202
T_EXACT = 754559310821298213955372740036
F_TWIN = 7.545593108212981e+29


@pytest.mark.parametrize("L", [8.0, 30.0, 80.0, L_CROSS])
def test_integer_one_sided_spectrum_walks_exactly(L):
    # each trace is an int cell value of the exact tree below the bound,
    # and each length is that trace's; an unreduced start descends first
    bound = 2.0 * math.sinh(L / 2)
    want = sorted(v for v in exact_cells_below((4, 4, 4, 4), bound)
                  if abs(one_sided_length(v)) < L)
    for q in (IntegerQuad(4, 4, 4, 4), IntegerQuad(484, 4, 4, 36)):
        entries = one_sided_spectrum(q, L)
        assert all(type(e.trace) is int and e.length == one_sided_length(e.trace)
                   for e in entries)
        assert sorted(e.trace for e in entries) == want
        assert count_s(q, L) == len(want)


def test_integer_spectrum_keeps_the_exact_side_of_the_bound():
    bound = 2.0 * math.sinh(L_CROSS / 2)
    assert F_TWIN <= bound < T_EXACT
    float_cells = walk(Q4, cell_bound=bound).values
    exact_cells = walk(IntegerQuad(4, 4, 4, 4), cell_bound=bound).values
    assert float_cells.count(F_TWIN) == 24 and T_EXACT not in exact_cells
    assert sorted(exact_cells) == sorted(exact_cells_below((4, 4, 4, 4), bound))
    assert len(float_cells) == len(exact_cells) + 24


def test_integer_two_sided_spectrum_and_systole_walk_exactly():
    q = IntegerQuad(484, 4, 4, 36)
    entries = two_sided_spectrum(q, 20.0)
    assert entries and all(type(e.trace) is int and e.length == two_sided_length(e.trace)
                           for e in entries)
    # no product here is past 2**53, so the float walk finds the same classes
    assert [(e.trace, e.cell_ref) for e in entries] == \
        [(e.trace, e.cell_ref) for e in two_sided_spectrum(Q4, 20.0)]
    length, witness = systole(IntegerQuad(4, 4, 4, 36))
    assert type(witness.trace) is int and witness.trace == 4
    assert length == witness.length == one_sided_length(4)


def test_spectra_walk_the_sink_in_the_quads_own_type(monkeypatch):
    starts = []
    real_walk = spectra.walk

    def spy(q, **kwargs):
        starts.append(q)
        return real_walk(q, **kwargs)

    monkeypatch.setattr(spectra, "walk", spy)
    for q in (IntegerQuad(484, 4, 4, 36), MarkoffQuad(484, 4, 4, 36), QF):
        sink = reduce_to_sink(q)[0]
        for run in (lambda: one_sided_spectrum(q, 8), lambda: count_s(q, 8),
                    lambda: two_sided_spectrum(q, 8), lambda: systole(q),
                    lambda: growth_exponent(q, 2, 8, 4)):
            starts.clear()
            run()
            assert starts == [sink] and type(starts[0]) is type(q)
    # no quad is built here: the sink is walked as the descent returns it
    assert not hasattr(spectra, "MarkoffQuad") and not hasattr(spectra, "_sink")


def test_spectrum_entry_is_an_immutable_named_tuple():
    assert SpectrumEntry._fields == ("kind", "trace", "length", "cell_ref", "word")
    e = SpectrumEntry(kind=CurveKind.ONE_SIDED, trace=4, length=2.0, cell_ref=3, word=())
    assert e == (CurveKind.ONE_SIDED, 4, 2.0, 3, ())
    assert e.cell_ref == 3 and e.word == ()
    with pytest.raises(AttributeError):
        e.length = 1.0


def test_two_sided_spectrum_examples():
    entries = two_sided_spectrum(Q4, 5.5)
    assert len(entries) == 6
    for e in entries:
        assert e.kind is CurveKind.TWO_SIDED
        assert e.trace == pytest.approx(14)
        assert e.length == pytest.approx(2 * math.acosh(7), abs=1e-12)
    assert two_sided_spectrum(Q4, 5.0) == []
    assert two_sided_spectrum(Q4, 0.0) == []


def test_count_s_examples():
    assert count_s(Q4, 3.0) == 4
    assert count_s(Q4, 7.2) == 8
    assert count_s(Q4, 1.0) == 0


def test_count_monotonicity():
    counts = [count_s(Q4, L) for L in (2, 3, 5, 7.2, 10, 12.5, 14)]
    assert counts == sorted(counts)


def test_systole_examples():
    length, witness = systole(Q4)
    assert length == pytest.approx(2 * math.asinh(2), abs=1e-12)
    assert witness.kind is CurveKind.ONE_SIDED
    length, witness = systole(MarkoffQuad(3, 3, 6, 6))
    assert length == pytest.approx(2 * math.asinh(1.5), abs=1e-12)
    assert witness.trace == pytest.approx(3)
    length, witness = systole(MarkoffQuad(1, 5, 24, 30))
    assert length == pytest.approx(2 * math.asinh(0.5), abs=1e-12)
    assert witness.trace == pytest.approx(1)


def test_systole_from_unreduced_start():
    length, _ = systole(MarkoffQuad(484, 4, 4, 36))
    assert length == pytest.approx(2 * math.asinh(2), abs=1e-12)


# (quad, |length|, trace) of the witness, all sink cell 0 with the empty
# word: the nine reduced integer quads, and one unreduced start.  For
# (4,4,4,4) the bound 2 sinh(l*/2) rounds to 3.9999999999999996, below
# the witness's own trace 4.
SYSTOLE_WITNESSES = [
    *[(q, 0.9624236501192069, 1) for q in ((1, 5, 24, 30), (1, 6, 14, 21),
                                           (1, 8, 9, 18), (1, 9, 10, 10))],
    *[(q, 1.762747174039086, 2) for q in ((2, 3, 10, 15), (2, 4, 6, 12), (2, 5, 5, 8))],
    ((3, 3, 6, 6), 2.389526434574219, 3),
    ((4, 4, 4, 4), 2.8872709503576206, 4),
    ((484, 4, 4, 36), 2.8872709503576206, 4),
]


@pytest.mark.parametrize("vals, length, trace", SYSTOLE_WITNESSES)
def test_systole_witnesses_pinned(vals, length, trace):
    ell, w = systole(MarkoffQuad(*vals))
    assert ell == w.length == length
    assert (w.kind, w.cell_ref, w.word, w.trace) == (CurveKind.ONE_SIDED, 0, (), trace)


def test_systole_walks_once(monkeypatch):
    calls = []
    real_walk = spectra.walk

    def counting_walk(*args, **kwargs):
        calls.append(kwargs)
        return real_walk(*args, **kwargs)

    monkeypatch.setattr(spectra, "walk", counting_walk)
    rng = random.Random(3)
    quads = [Q4, MarkoffQuad(484, 4, 4, 36), MarkoffQuad(1, 5, 24, 30),
             *(sample_fuchsian_quad(rng) for _ in range(5))]
    for q in quads:
        calls.clear()
        systole(q)
        assert len(calls) == 1
        assert calls[0]["cell_bound"] is not None and calls[0]["face_bound"] is not None


def test_spectra_degenerate_sink_raise_before_walking(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("walked")

    monkeypatch.setattr(spectra, "walk", refuse)
    for vals in ((0, 0, 0, 0), (0, 1, 2, -3)):
        q = MarkoffQuad(*vals)
        for run in (lambda: one_sided_spectrum(q, 3), lambda: count_s(q, 3),
                    lambda: growth_exponent(q, 1, 3, 4)):
            with pytest.raises(DegenerateClassError, match="zero trace"):
                run()
        # the root's face (0, 1) has product 0, trace -2
        with pytest.raises(BranchCutError, match=r"two-sided trace \(-2\+0j\)"):
            two_sided_spectrum(q, 3)
        assert one_sided_spectrum(q, 0) == two_sided_spectrum(q, 0) == []


def test_two_sided_spectrum_checks_all_six_sink_faces_before_walking(monkeypatch):
    # the degenerate face (1, 2), product 1, raises before any walk
    # instead of spending the budget on the cells it circles
    def refuse(*args, **kwargs):
        raise AssertionError("walked")

    monkeypatch.setattr(spectra, "walk", refuse)
    q = MarkoffQuad.from_values((8, 1, 1, -6 - 8j))
    with pytest.raises(BranchCutError, match=r"two-sided trace \(-1\+0j\)"):
        two_sided_spectrum(q, 2)
    with pytest.raises(BranchCutError, match=r"two-sided trace \(-1\+0j\)"):
        two_sided_spectrum(q, 10, max_cells=2000)


def test_infinite_cutoffs_raise_before_walking(monkeypatch):
    # a walk to an infinite trace bound would only end at the budget
    def refuse(*args, **kwargs):
        raise AssertionError("walked")

    monkeypatch.setattr(spectra, "walk", refuse)
    for run in (lambda: one_sided_spectrum(Q4, math.inf), lambda: count_s(Q4, math.inf),
                lambda: two_sided_spectrum(Q4, math.inf),
                # lmax / lmin overflows, so the top cutoffs are infinite
                lambda: growth_exponent(Q4, 1e-300, 1e300, 5, max_cells=10 ** 8)):
        with pytest.raises(DomainError, match="cutoff L=inf is out of range"):
            run()
    for fn in (one_sided_spectrum, two_sided_spectrum):
        with pytest.raises(DomainError, match="cutoff L=nan is out of range"):
            fn(Q4, math.nan)


def test_systole_degenerate_sink_raises_before_walking(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("walked")

    monkeypatch.setattr(spectra, "walk", refuse)
    for vals in ((0, 0, 0, 0), (0, 1, 2, -3)):
        with pytest.raises(DegenerateClassError, match="zero trace"):
            systole(MarkoffQuad(*vals))
    # no zero cell in its sink, but a face with product in [0, 4]
    d = min(completion_roots(2, -2, 2), key=lambda r: r.real).real
    with pytest.raises(BranchCutError):
        systole(MarkoffQuad(2, -2, 2, d))


@given(st.integers(0, 2 ** 32), st.sampled_from([1e-3, 1e-2, 5e-2, 0.2]), st.booleans())
@example(2, 1e-2, False)  # two-sided witnesses, which random draws seldom give
@example(62, 1e-3, False)
@settings(max_examples=60, derandomize=True, deadline=None)
def test_systole_quasi_fuchsian_oracle(seed, scale, integer_root):
    # a second walk, to the bounds that the returned |length| implies (with
    # room for rounding), finds no shorter class; the witness replays.  The
    # base is a sampled Fuchsian sink or one of the nine integer roots, and
    # the systole keeps the Fuchsian bound 2 asinh(2) of criterion 2
    rng = random.Random(seed)
    if integer_root:
        base = MarkoffQuad.from_values(rng.choice(enumerate_fundamental()).values())
    else:
        base, _ = reduce_to_sink(sample_fuchsian_quad(rng))
    q = MarkoffQuad.from_values(perturb_quad(base.values(), rng, scale=scale))
    ell, w = systole(q, tol=1e-6)
    best = abs(ell)
    assert best <= 2 * math.asinh(2) + 1e-9 and ell.real <= 2 * math.asinh(2) + 1e-9
    sink, _ = reduce_to_sink(q, tol=1e-6)
    cell_bound = 2 * math.sinh(best / 2) * (1 + 1e-9)
    cells = walk(sink, cell_bound=cell_bound, tol=1e-6).values
    assert all(abs(one_sided_length(v)) >= best for v in cells if abs(v) <= cell_bound)
    faces = walk(sink, face_bound=(2 * math.cosh(best / 2) + 2) * (1 + 1e-9), tol=1e-6).faces
    assert all(abs(two_sided_length(p - 2)) >= best for p in faces.values())
    assert abs(w.length) == best
    if w.kind is CurveKind.ONE_SIDED:
        vals = list(sink.values())
        for i in w.word:
            vals[i - 1] = flip_value(vals, i)
        assert vals[w.word[-1] - 1 if w.word else w.cell_ref] == w.trace
        assert one_sided_length(w.trace) == ell
    else:
        assert w.word is None
        assert w.trace in [p - 2 for p in faces.values()]
        assert two_sided_length(w.trace) == ell


def test_positive_sink_smallest_entry_is_at_most_4():
    # systole's docstring proves that a positive sink sorted a <= b <= c <= d
    # has a*b*c^2 <= (a + b + 2c)^2, with equality exactly when d == c, and
    # so a <= 4.  Exact on the nine integer roots
    ties = []
    for q in enumerate_fundamental():
        a, b, c, d = sorted(q)
        assert a * b * c * c <= (a + b + 2 * c) ** 2
        if a * b * c * c == (a + b + 2 * c) ** 2:
            ties.append((a, b, c, d))
        else:
            assert c < d
    assert ties == [(1, 9, 10, 10), (3, 3, 6, 6), (4, 4, 4, 4)]

    # and in floats, with relative slack, on the sinks of sampled Fuchsian quads
    @given(st.integers(0, 2 ** 32))
    @settings(max_examples=200, derandomize=True, deadline=None)
    def on_sampled_sinks(seed):
        sink, _ = reduce_to_sink(sample_fuchsian_quad(random.Random(seed)))
        a, b, c, d = sorted(v.real for v in sink.values())
        assert a * b * c * c <= (a + b + 2 * c) ** 2 * (1 + 1e-9)
        assert a <= 4 * (1 + 1e-9)

    on_sampled_sinks()


def test_spectrum_mapping_class_invariance():
    # applying mapping classes moves the basepoint, not the surface, so
    # the spectrum is unchanged.  Words are built with a value cap:
    # descending from entries of size C costs ~1e-16 * C^1.5 in absolute
    # error, so uncapped excursions drown the comparison.
    rng = random.Random(41)
    letters = ["f1", "f2", "f3", "f4", "phi1", "phi2", "phi3"]
    for _ in range(10):
        q = sample_fuchsian_quad(rng)
        base = sorted(abs(e.length) for e in one_sided_spectrum(q, 6.0))
        for _ in range(2):
            img = q
            used = 0
            for _ in range(20):
                letter = rng.choice(letters)
                candidate = mcg_apply([letter], img)
                if max(abs(v) for v in candidate.values()) > 1e4:
                    continue
                img = candidate
                used += 1
            assert used > 0
            moved = sorted(
                abs(e.length) for e in one_sided_spectrum(img, 6.0, tol=1e-6)
            )
            assert len(base) == len(moved)
            for x, y in zip(base, moved):
                assert x == pytest.approx(y, rel=1e-8)


def test_fuchsian_positivity():
    rng = random.Random(42)
    for _ in range(20):
        q = sample_fuchsian_quad(rng)
        for e in one_sided_spectrum(q, 5.0) + two_sided_spectrum(q, 5.0):
            assert abs(e.length.imag) <= 1e-9
            assert e.length.real > 0


def test_counts_match_unpruned_oracle():
    for L in (3.0, 7.2, 10.0, 13.0):
        assert count_s(Q4, L) == unpruned_count_below_length((4, 4, 4, 4), L)
    assert count_s(MarkoffQuad(2, 5, 5, 8), 6.0) == unpruned_count_below_length(
        (2, 5, 5, 8), 6.0
    )


def test_fit_power_law():
    # exact power law is recovered
    pts = [(L, round(3 * L**2)) for L in (10, 20, 40, 80)]
    m, c, res = fit_power_law(pts)
    assert m == pytest.approx(2.0, abs=2e-3)
    assert res <= 1e-3
    with pytest.raises(DomainError):
        fit_power_law([(10, 5)])
    with pytest.raises(DomainError, match="degenerate fit: all L equal"):
        fit_power_law([(2, 3), (2, 5)])
    # an L that is not finite and positive, or a float count that is not
    # finite, is named; a count <= 0 is skipped, and an int count past
    # the float range is fitted as it is
    for bad in [(0, 3), (-2.0, 5), (math.nan, 5), (math.inf, 7), (3, math.inf),
                (3, math.nan), (3, -math.inf)]:
        pts = [(2, 5), (3, 7), (5, 11)] + [bad]
        with pytest.raises(DomainError, match=re.escape(f"cannot fit the sample {bad!r}: ")):
            fit_power_law(pts)
    assert fit_power_law([(2, 5), (3, 0), (4, -1), (5, 11)]) == fit_power_law([(2, 5), (5, 11)])
    m, _, _ = fit_power_law([(2, 10 ** 400), (4, 4 * 10 ** 400)])
    assert m == pytest.approx(2.0)


def test_growth_exponent_window():
    fit = growth_exponent(Q4, 10.0, 34.0, 7)
    assert 2.0 <= fit.exponent <= 2.8
    counts = [s for _, s in fit.samples]
    assert counts == sorted(counts)
    assert fit.fit_residual < 0.5


# a quad whose systole walk, from its sink, holds six cells
_SYSTOLE_WALKS_6 = (1.9577730707917596 - 0.2660093910560115j,
                    -0.46945630853046394 - 2.6657566139526394j,
                    2.4964160906519455 - 2.803672680184345j,
                    0.5314750169042117 + 1.733882827408138j)


_NON_SUMMABLE = "suspected non-summable input"


def _finite(cells, queued):
    return (f"the walk is finite but the budget too small"
            f" ({cells} cells made, {queued} vertices still queued)")


@pytest.mark.parametrize("run, max_cells, reason", [
    # 8,1,1,-6-8i is not summable: its one-sided walks never end
    (lambda m: one_sided_spectrum(MarkoffQuad(8, 1, 1, -6 - 8j), 10, max_cells=m), 100,
     _NON_SUMMABLE),
    (lambda m: count_s(MarkoffQuad(8, 1, 1, -6 - 8j), 10, max_cells=m), 100, _NON_SUMMABLE),
    (lambda m: growth_exponent(MarkoffQuad(8, 1, 1, -6 - 8j), 1, 10, 5, max_cells=m), 100,
     _NON_SUMMABLE),
    # its two-sided spectrum and systole raise at a degenerate sink face
    # before any walk, so these run out on summable quads.  Q4 walks in
    # floats and the IntegerQuad in ints, each from a positive sink, so
    # their walks are finite; the complex walk is not known to be
    (lambda m: two_sided_spectrum(Q4, 30, max_cells=m), 20, _finite(20, 11)),
    (lambda m: one_sided_spectrum(IntegerQuad(4, 4, 4, 4), 30, max_cells=m), 20, _finite(20, 11)),
    (lambda m: systole(MarkoffQuad.from_values(_SYSTOLE_WALKS_6), max_cells=m, tol=1e-6), 5,
     _NON_SUMMABLE),
], ids=["one-sided", "count", "growth", "two-sided", "exact", "systole"])
def test_spectra_raise_on_a_spent_budget(run, max_cells, reason):
    # the walk returns what it found; a spectrum, count or systole read
    # from it could miss classes, so each raises instead
    with pytest.raises(BudgetExceededError) as err:
        run(max_cells)
    assert str(err.value) == f"cell budget {max_cells} exhausted; {reason}"


def test_growth_exponent_validation():
    with pytest.raises(DomainError):
        growth_exponent(Q4, 10.0, 34.0, 3)
    with pytest.raises(DomainError):
        growth_exponent(Q4, 34.0, 10.0, 5)
    # the shells count against the cell budget before any cutoff is built
    with pytest.raises(BudgetExceededError):
        growth_exponent(Q4, 2.0, 8.0, 1001, max_cells=1000)


def test_klein_counting_is_linear():
    # lengths of the one-sided family on a Klein bottle grow linearly, so
    # the fitted exponent of the counting function is about 1
    seq = klein_sequence(3, 1, 2, 60)
    lengths = sorted(2 * math.asinh(float(t)) for t in seq.terms)
    samples = []
    for L in (20.0, 30.0, 45.0, 67.0, 100.0):
        samples.append((L, sum(1 for x in lengths if x < L)))
    m, _, _ = fit_power_law(samples)
    assert abs(m - 1.0) <= 0.2


def test_fit_power_law_equal_counts():
    # flat data still fits: slope zero, finite residual
    m, c, res = fit_power_law([(10.0, 8), (14.0, 8), (20.0, 8), (28.0, 8)])
    assert m == pytest.approx(0.0, abs=1e-12)
    assert res == pytest.approx(0.0, abs=1e-12)
