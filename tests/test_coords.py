import math
import random

import pytest

from markoffquads import (
    DomainError,
    HorocyclicCoords,
    LambdaCoords,
    MarkoffQuad,
    enumerate_fundamental,
    horocyclic_to_quad,
    in_fundamental_domain,
    lambda_to_quad,
    mcg_apply,
    mcg_relations_check,
    quad_to_horocyclic,
    quad_to_lambda,
    sample_fuchsian_quad,
    sample_horocyclic,
)

Q4 = MarkoffQuad(4, 4, 4, 4)


def test_quad_to_lambda_examples():
    lc = quad_to_lambda(Q4)
    assert lc.values() == (4, 4, 4, 4, 4, 4)
    assert lc.simplex_residual() <= 1e-15
    lc = quad_to_lambda(MarkoffQuad(1, 9, 10, 10))
    want = (math.sqrt(90), math.sqrt(10), 3.0, math.sqrt(10), math.sqrt(90), 10.0)
    for got, exp in zip(lc.values(), want):
        assert got == pytest.approx(exp, abs=1e-12)


def test_lambda_roundtrip_and_validation():
    rng = random.Random(2)
    for _ in range(300):
        q = sample_fuchsian_quad(rng)
        lc = quad_to_lambda(q)
        assert lc.simplex_residual() <= 1e-10
        back = lambda_to_quad(lc)
        for x, y in zip(back.values(), q.values()):
            assert abs(x - y) <= 1e-12 * max(1.0, abs(y))
    with pytest.raises(DomainError):
        quad_to_lambda(MarkoffQuad(2 + 1j, 2 - 1j, 1, complex(6.53112887414927, 0)))
    with pytest.raises(DomainError):
        lambda_to_quad(LambdaCoords(1, 1, -1, 1, 1, 1))


def test_quad_to_horocyclic_examples():
    hc = quad_to_horocyclic(Q4)
    assert hc.values() == (0.25, 0.25, 0.25, 0.25)
    q = horocyclic_to_quad(HorocyclicCoords(0.5, 1 / 6, 1 / 6, 1 / 6))
    assert q.values()[0] == pytest.approx(6 * math.sqrt(3), abs=1e-12)
    for v in q.values()[1:]:
        assert v == pytest.approx(2 * math.sqrt(3), abs=1e-12)
    assert q.residual() <= 1e-12


@pytest.mark.parametrize("small", [1e-300, 1e-200, 1e-150])
def test_horocyclic_to_quad_refuses_an_underflowing_product(small):
    # the coordinates sum to 1 within tol, but a product of three of them
    # underflows to 0.0, so no quad entry can be computed
    with pytest.raises(DomainError, match="underflows"):
        horocyclic_to_quad(HorocyclicCoords(small, small, small, 1.0))


def test_horocyclic_two_identities_agree():
    # entry/(sum) and sqrt(entry/(product of others)) coincide on quads
    rng = random.Random(8)
    for _ in range(100):
        q = sample_fuchsian_quad(rng)
        a, b, c, d = [v.real for v in q.values()]
        hc = quad_to_horocyclic(q)
        assert hc.ha == pytest.approx(math.sqrt(a / (b * c * d)), rel=1e-12)
        assert hc.hd == pytest.approx(math.sqrt(d / (a * b * c)), rel=1e-12)


def test_horocyclic_roundtrip():
    rng = random.Random(3)
    for _ in range(300):
        hc = sample_horocyclic(rng)
        q = horocyclic_to_quad(hc)
        assert q.residual() <= 1e-12
        back = quad_to_horocyclic(q)
        for x, y in zip(back.values(), hc.values()):
            assert x == pytest.approx(y, abs=1e-12)


def test_horocyclic_validation():
    with pytest.raises(DomainError):
        horocyclic_to_quad(HorocyclicCoords(0.5, 0.5, 0.25, -0.25))
    with pytest.raises(DomainError):
        horocyclic_to_quad(HorocyclicCoords(0.3, 0.3, 0.3, 0.3))


def test_in_fundamental_domain_examples():
    chk = in_fundamental_domain(HorocyclicCoords(0.25, 0.25, 0.25, 0.25))
    assert chk.inside and not any(chk.walls)
    chk = in_fundamental_domain(quad_to_horocyclic(MarkoffQuad(4, 4, 4, 36)))
    assert not chk.inside  # H_d = 36/48 = 3/4
    chk = in_fundamental_domain(HorocyclicCoords(0.5, 1 / 6, 1 / 6, 1 / 6))
    assert chk.inside and chk.walls == (True, False, False, False)


def test_fundamental_quads_lie_in_domain():
    for q in enumerate_fundamental():
        hc = quad_to_horocyclic(MarkoffQuad.from_values(q.values()))
        assert in_fundamental_domain(hc).inside


def test_mcg_apply_examples():
    assert mcg_apply(["phi2"], MarkoffQuad(1, 5, 24, 30)).values() == (24, 30, 1, 5)
    assert mcg_apply(["phi1"], MarkoffQuad(1, 5, 24, 30)).values() == (5, 1, 30, 24)
    assert mcg_apply(["phi3"], MarkoffQuad(1, 5, 24, 30)).values() == (30, 24, 5, 1)
    assert mcg_apply(["f4"], Q4).values() == (4, 4, 4, 36)
    assert mcg_apply(["f4", "f4"], Q4).values() == (4, 4, 4, 4)
    with pytest.raises(DomainError):
        mcg_apply(["f5"], Q4)


def test_mcg_conjugation_relation_random():
    rng = random.Random(7)
    for _ in range(100):
        q = sample_fuchsian_quad(rng)
        left = mcg_apply(["phi1", "f1", "phi1"], q)
        right = mcg_apply(["f2"], q)
        for x, y in zip(left.values(), right.values()):
            assert abs(x - y) <= 1e-9 * max(1.0, abs(y))


def test_mcg_permutation_composition():
    # phi1 phi2 = phi2 phi1 = phi3 on the nose
    q = MarkoffQuad(1, 5, 24, 30)
    a = mcg_apply(["phi1", "phi2"], q).values()
    b = mcg_apply(["phi2", "phi1"], q).values()
    c = mcg_apply(["phi3"], q).values()
    assert a == b == c


def test_mcg_flip_involution_exact_integers():
    q = MarkoffQuad(1, 5, 24, 30)
    for letter in ("f1", "f2", "f3", "f4"):
        assert mcg_apply([letter, letter], q).values() == q.values()


def test_mcg_relations_check_report():
    rep = mcg_relations_check(100, rng=random.Random(55))
    assert rep.samples == 100
    assert rep.ok
    assert rep.max_deviation <= 1e-9
    assert len(rep.deviations) == 11
    assert mcg_relations_check(3).ok  # the default rng
    with pytest.raises(DomainError, match="sample_count must be >= 1"):
        mcg_relations_check(0)
    # `ok` compares with a fixed 1e-9: there is no tolerance to pass
    with pytest.raises(TypeError):
        mcg_relations_check(3, tol=1e-3)


def test_mcg_preserves_relation_long_words():
    rng = random.Random(19)
    letters = ["f1", "f2", "f3", "f4", "phi1", "phi2", "phi3"]
    for _ in range(20):
        q = sample_fuchsian_quad(rng)
        img = q
        for _ in range(20):
            letter = rng.choice(letters)
            nxt = mcg_apply([letter], img)
            if max(abs(v) for v in nxt.values()) > 1e6:
                continue
            img = nxt
        assert img.residual() <= 1e-9
