"""The array walk (`walk`) and the callers that read it instead of the
word-building view (`explore`)."""

import math
import random
import sys

import pytest

import markoffquads
from markoffquads import (
    Cell,
    Face,
    MarkoffQuad,
    check_bq,
    count_s,
    curvecomplex,
    explore,
    growth_exponent,
    mcshane_partial,
    mcshane_verify,
    one_sided_length,
    one_sided_spectrum,
    reduce_to_sink,
    sample_fuchsian_quad,
    systole,
    two_sided_spectrum,
    walk,
)
from helpers import perturb_quad

# the classical reduced positive integer quads
INTEGER_ROOTS = [
    (1, 5, 24, 30), (1, 6, 14, 21), (1, 8, 9, 18), (1, 9, 10, 10),
    (2, 3, 10, 15), (2, 5, 5, 8), (3, 3, 6, 6), (4, 4, 4, 4),
]


def _perturbed(seed, n):
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        base, _ = reduce_to_sink(sample_fuchsian_quad(rng))
        out.append(perturb_quad(base.values(), rng, scale=1e-2))
    return out


# (vals, cell_bound, face_bound, max_cells); the last walk runs out of budget
WALKS = [
    *[(vals, cb, fb, 200_000) for vals in INTEGER_ROOTS
      for cb, fb in ((1e4, None), (None, 1e6), (1e3, 1e5))],
    *[(vals, cb, fb, 200_000) for vals in _perturbed(11, 4)
      for cb, fb in ((1e4, None), (None, 1e6))],
    ((0, 0, 0, 0), 1.0, 1.0, 500),
]


@pytest.mark.parametrize("vals, cell_bound, face_bound, max_cells", WALKS)
def test_explore_is_the_view_over_walk(vals, cell_bound, face_bound, max_cells):
    q = MarkoffQuad.from_values(vals)
    kw = dict(cell_bound=cell_bound, face_bound=face_bound, max_cells=max_cells,
              tol=1e-6, on_budget="truncate")
    w, ex = walk(q, **kw), explore(q, **kw)
    n = len(w.values)
    assert n > 4 and len(w.parents) == len(w.slots) == n
    # words read back along the parent chain, one cell at a time
    assert ex.cells == tuple(Cell(k, w.values[k], w.word(k)) for k in range(n))
    assert [repr(c.value) for c in ex.cells] == [repr(v) for v in w.values]
    assert [c.word for c in ex.cells] == w.words()
    assert ex.faces == tuple(Face(pair, p) for pair, p in sorted(w.faces.items()))
    assert (ex.nodes_visited, ex.budget_hit) == (w.nodes_visited, w.budget_hit)
    assert w.budget_hit == (vals == (0, 0, 0, 0))


def test_walk_word_follows_the_flips():
    # replaying a cell's word from the root lands on a vertex holding its value
    w = walk(MarkoffQuad(2, 5, 5, 8), cell_bound=1e4)
    for k in range(4, len(w.values)):
        vals = [2.0, 5.0, 5.0, 8.0]
        for i in w.word(k):
            vals[i - 1] = markoffquads.flip_value(vals, i)
        assert vals[w.slots[k] - 1] == w.values[k]


def _tie_length(trace):
    """The exact |length| that every one-sided class of this trace shares."""
    return abs(one_sided_length(trace))


@pytest.mark.parametrize("q, lmin, lmax", [
    (MarkoffQuad(4, 4, 4, 4), 3.0, 14.0),
    (MarkoffQuad(2, 5, 5, 8), 2.5, 12.0),
    (MarkoffQuad.from_values(_perturbed(5, 1)[0]), 3.0, 12.0),
    # four classes of trace 36 tie at the first cutoff, so none is counted there
    (MarkoffQuad(4, 4, 4, 4), _tie_length(36), 12.0),
])
def test_counts_without_words_match_the_spectrum(q, lmin, lmax):
    fit = growth_exponent(q, lmin, lmax, 6, tol=1e-6)
    assert fit.samples[0][0] == lmin
    for L, n in fit.samples:
        entries = one_sided_spectrum(q, L, tol=1e-6)
        assert n == count_s(q, L, tol=1e-6) == len(entries)
        assert all(abs(e.length) < L for e in entries)
    full = one_sided_spectrum(q, lmax * 1.01, tol=1e-6)
    for L, n in fit.samples:
        assert n == sum(1 for e in full if abs(e.length) < L)


def test_tie_at_the_cutoff_counts_none_of_the_tied():
    q = MarkoffQuad(4, 4, 4, 4)
    L = _tie_length(36)
    at = [e for e in one_sided_spectrum(q, math.nextafter(L, math.inf))
          if abs(e.length) == L]
    assert len(at) == 4
    assert count_s(q, L) == 4 and count_s(q, math.nextafter(L, math.inf)) == 8


def test_hot_paths_stay_off_the_word_building_view(monkeypatch):
    # McShane sums, bq-check, growth, counts, spectra and the systole read
    # the walk's arrays; the view builds a word and a Cell per cell
    def refuse(*args, **kwargs):
        raise AssertionError("a hot path called the word-building view")

    fn = curvecomplex.explore
    for mod in list(sys.modules.values()):
        if (getattr(mod, "__name__", "").startswith("markoffquads")
                and getattr(mod, "explore", None) is fn):
            monkeypatch.setattr(mod, "explore", refuse)
    with pytest.raises(AssertionError):
        markoffquads.explore(MarkoffQuad(4, 4, 4, 4), cell_bound=10)

    for q in (MarkoffQuad(4, 4, 4, 4), MarkoffQuad.from_values(_perturbed(7, 1)[0])):
        assert mcshane_partial(q, 1e6, tol=1e-6).term_count > 0
        assert mcshane_verify(q, 1e-3, tol=1e-6)[1].term_count > 0
        assert check_bq(q, 10, quad_tol=1e-6).ok
        assert growth_exponent(q, 5, 12, 4, tol=1e-6).exponent > 0
        assert count_s(q, 10, tol=1e-6) > 0
        assert two_sided_spectrum(q, 8, tol=1e-6)
        assert one_sided_spectrum(q, 8, tol=1e-6)
        assert systole(q, tol=1e-6)[1].word is not None
