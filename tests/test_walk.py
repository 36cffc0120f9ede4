"""The array walk (`walk`): its arrays, the words read back from them,
and the counts and spectra built on it."""

import math
import random

import pytest

import markoffquads
from markoffquads import (
    MarkoffQuad,
    count_s,
    growth_exponent,
    one_sided_length,
    one_sided_spectrum,
    reduce_to_sink,
    sample_fuchsian_quad,
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
    # the walk's arrays, and the words read back from them
    q = MarkoffQuad.from_values(vals)
    w = walk(q, cell_bound=cell_bound, face_bound=face_bound, max_cells=max_cells,
             tol=1e-6)
    n = len(w.values)
    assert n > 4 and len(w.parents) == len(w.slots) == n
    assert len(w.words()) == n
    assert w.budget_hit == (vals == (0, 0, 0, 0))


def test_walk_word_follows_the_flips():
    # replaying a cell's word from the root lands on a vertex holding its value
    w = walk(MarkoffQuad(2, 5, 5, 8), cell_bound=1e4)
    words = w.words()
    for k in range(4, len(w.values)):
        vals = [2.0, 5.0, 5.0, 8.0]
        for i in words[k]:
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

