"""The contract of the library's record and value types: keyword
construction, repr text, immutability, equality and hash, and the
validation that runs on every construction."""

import itertools

import pytest

from markoffquads import (
    BqReport,
    DomainCheck,
    DomainError,
    Face,
    GrowthFit,
    HorocyclicCoords,
    IntegerQuad,
    InvalidQuadError,
    KleinSequence,
    LambdaCoords,
    MarkoffQuad,
    Matrix2,
    McgRelationsReport,
    McShaneReport,
    SpiralSequence,
    Verdict,
    VertexClass,
    VertexKind,
)

# (class, keyword arguments, repr text); repr text is pinned verbatim
# because users and logs read it
CASES = [
    (MarkoffQuad, dict(a=4, b=4, c=4, d=4),
     "MarkoffQuad(a=(4+0j), b=(4+0j), c=(4+0j), d=(4+0j))"),
    (Matrix2, dict(m11=1, m12=2j, m21=3.5, m22=4),
     "Matrix2(m11=1, m12=2j, m21=3.5, m22=4)"),
    (KleinSequence, dict(A=3, terms=(1, 1, 2), lambda_plus=2.5, lambda_minus=0.5),
     "KleinSequence(A=3, terms=(1, 1, 2), lambda_plus=2.5, lambda_minus=0.5)"),
    (VertexClass, dict(kind=VertexKind.SINK, orientations=(-1, -1, -1, -1)),
     "VertexClass(kind=<VertexKind.SINK: 'sink'>, orientations=(-1, -1, -1, -1))"),
    (Face, dict(cells=(0, 1), product=16), "Face(cells=(0, 1), product=16)"),
    (SpiralSequence, dict(a=3, b=3, n_start=-1, terms=(1, 2), closed_form=None),
     "SpiralSequence(a=3, b=3, n_start=-1, terms=(1, 2), closed_form=None)"),
    (BqReport, dict(cutoff=4.0, faces4=(), violations=(), cells_below2=0, budget_hit=False),
     "BqReport(cutoff=4.0, faces4=(), violations=(), cells_below2=0, budget_hit=False)"),
    (McShaneReport, dict(partial_sum=0.5j, term_count=6, product_cutoff=100.0,
                         last_shell_max=0.0, verdict=Verdict.PARTIAL),
     "McShaneReport(partial_sum=0.5j, term_count=6, product_cutoff=100.0, "
     "last_shell_max=0.0, verdict=<Verdict.PARTIAL: 'partial'>)"),
    (GrowthFit, dict(samples=((10.0, 8),), exponent=1.5, intercept_log_eta=-1.0,
                     fit_residual=0.25),
     "GrowthFit(samples=((10.0, 8),), exponent=1.5, intercept_log_eta=-1.0, fit_residual=0.25)"),
    (IntegerQuad, dict(a=2, b=4, c=6, d=12), "IntegerQuad(a=2, b=4, c=6, d=12)"),
    (LambdaCoords, dict(l1=4.0, l2=4.0, l3=4.0, m1=4.0, m2=4.0, m3=4.0),
     "LambdaCoords(l1=4.0, l2=4.0, l3=4.0, m1=4.0, m2=4.0, m3=4.0)"),
    (HorocyclicCoords, dict(ha=0.25, hb=0.25, hc=0.25, hd=0.25),
     "HorocyclicCoords(ha=0.25, hb=0.25, hc=0.25, hd=0.25)"),
    (DomainCheck, dict(inside=True, walls=(False, False, False, False)),
     "DomainCheck(inside=True, walls=(False, False, False, False))"),
    (McgRelationsReport, dict(samples=1, deviations={"f1 f1 = id": 0.0}),
     "McgRelationsReport(samples=1, deviations={'f1 f1 = id': 0.0})"),
]

VALUE_TYPES = (MarkoffQuad, IntegerQuad, Matrix2, LambdaCoords, HorocyclicCoords)


@pytest.mark.parametrize("cls, kwargs, text", CASES, ids=[c[0].__name__ for c in CASES])
def test_record_type_contract(cls, kwargs, text):
    obj = cls(**kwargs)
    assert repr(obj) == text
    assert obj == cls(*kwargs.values()) and not obj != cls(*kwargs.values())
    for name in kwargs:
        with pytest.raises(AttributeError):
            setattr(obj, name, 0)
    if any(isinstance(v, dict) for v in kwargs.values()):
        with pytest.raises(TypeError):  # a dict field is unhashable, as before
            hash(obj)
    else:
        assert hash(obj) == hash(cls(**kwargs))
    if cls in VALUE_TYPES:
        plain = tuple(getattr(obj, name) for name in kwargs)
        assert obj != plain and plain != obj and not obj == plain
        if hasattr(obj, "values"):
            assert type(obj.values()) is tuple and obj.values() == plain


def test_value_types_differ_across_classes():
    quads = [MarkoffQuad(4, 4, 4, 4), IntegerQuad(4, 4, 4, 4), Matrix2(4, 4, 4, 4),
             HorocyclicCoords(4, 4, 4, 4)]
    for x, y in itertools.permutations(quads, 2):
        assert x != y and not x == y
    assert LambdaCoords(*[1.0] * 6) != (1.0,) * 6
    # the value types still work as set members and dict keys
    assert len({MarkoffQuad(4, 4, 4, 4), MarkoffQuad(4, 4, 4, 4), IntegerQuad(4, 4, 4, 4)}) == 2


@pytest.mark.parametrize("cls, args, exc, text", [
    (MarkoffQuad, ("a", 1, 1, 1), ValueError, "complex() arg is a malformed string"),
    (MarkoffQuad, (4, 4, 4, float("nan")), DomainError, "non-finite value nan"),
    (MarkoffQuad, (4, 4, 4, 10 ** 400), DomainError, "value out of float range"),
    (IntegerQuad, ("a", 1, 1, 1), DomainError, "entry a='a' is not an int"),
    (IntegerQuad, (1, 2, 3, 4), InvalidQuadError, "(1,2,3,4) fails (a+b+c+d)^2 = abcd"),
    (IntegerQuad, (4, 4, -4, 4), DomainError, "entry c=-4 is negative"),
    (IntegerQuad, (4, 4, 4, 4.0), DomainError, "entry d=4.0 is not an int"),
    (IntegerQuad, (True, 4, 4, 4), DomainError, "entry a=True is not an int"),
    (IntegerQuad, (4, -1, 4, 4.0), DomainError, "entry b=-1 is negative"),
])
def test_construction_validates(cls, args, exc, text):
    with pytest.raises(exc) as info:
        cls(*args)
    assert type(info.value) is exc and str(info.value) == text
    with pytest.raises(exc):
        cls(**dict(zip("abcd", args)))
    with pytest.raises(exc):
        cls(4, 4, 4, 4)._replace(**dict(zip("abcd", args)))


def test_markoff_quad_coerces_entries_to_complex():
    q = MarkoffQuad(a=4, b=4.0, c="4", d=4 + 0j)
    assert all(type(v) is complex for v in q.values()) and q == MarkoffQuad(4, 4, 4, 4)

