"""The library's records: hand-written ``__slots__`` classes for the hot
ones, the ``errors.record`` helper for the rest.  Both keep what frozen
dataclasses gave: field order, defaults, ``__post_init__`` checks, a repr
listing the fields, equality within one class by the field tuple with
the hash of that tuple (identity for points), and ``AttributeError`` on
assignment.  The expected strings are those the dataclasses printed."""

import operator
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from berkline import (
    INF,
    QQ,
    ChainPoint,
    DiscPoint,
    DomainError,
    Exponent,
    Magnitude,
    PAdicField,
    PathSegment,
    PointClass,
    Poly,
    PrimeField,
    PuiseuxField,
    Rationals,
    SkeletonVertex,
    TrivialField,
    Type1Point,
)
from berkline.domains import Domain, Inequality, Rel
from berkline.hyperelliptic import Multiplicative
from berkline.zspectrum import LimitReport, RealMag, ZPAdic, ZTrivial

Q5 = PAdicField(5)
ONE = Magnitude.finite(Exponent(1))
ONE_TEXT = "Magnitude(exponent=Exponent(a=Fraction(1, 1), b=Fraction(0, 1)))"
F = Poly.make(Q5, [Fraction(1), Fraction(2)])


def test_reprs_frozen():
    cases = [
        (ONE, ONE_TEXT),
        (Magnitude.zero(), "Magnitude(exponent=None)"),
        (F, "Poly(field=PAdicField(p=5), coeffs=(Fraction(1, 1), Fraction(2, 1)))"),
        (Type1Point(Q5, Fraction(1, 2)), "Type1Point(field=PAdicField(p=5), center=Fraction(1, 2))"),
        (
            DiscPoint(Q5, Fraction(0), ONE),
            f"DiscPoint(field=PAdicField(p=5), center=Fraction(0, 1), radius={ONE_TEXT})",
        ),
        (
            ChainPoint(Q5, ((Fraction(0), ONE),)),
            f"ChainPoint(field=PAdicField(p=5), discs=((Fraction(0, 1), {ONE_TEXT}),), "
            "limit_exponent=None)",
        ),
        (PuiseuxField(Rationals()), "PuiseuxField(base=Rationals())"),
        (TrivialField(PrimeField(7)), "TrivialField(base=PrimeField(p=7))"),
        (Domain(), "Domain(inequalities=())"),
        (PointClass(2, 0, 1), "PointClass(type=2, E=0, F=1)"),
        (
            PathSegment(0, Exponent(0), INF),
            "PathSegment(center=0, e_from=Exponent(a=Fraction(0, 1), b=Fraction(0, 1)), e_to=INF)",
        ),
        (SkeletonVertex(0, None, 1), "SkeletonVertex(id=0, point=None, ptype=1, genus=0)"),
        (RealMag.of(5, 1), "RealMag(base=Fraction(5, 1), exp=Fraction(1, 1))"),
        (ZTrivial(), "ZTrivial()"),
        (ZPAdic(p=5, r=2), "ZPAdic(p=5, r=Fraction(2, 1))"),
        (
            LimitReport((Fraction(1),), (2,), True, 0.5),
            "LimitReport(radii=(Fraction(1, 1),), samples=(2,), monotone=True, max_deviation=0.5)",
        ),
    ]
    for obj, text in cases:
        assert repr(obj) == text


def test_equality_and_hash_by_field_tuple():
    assert ONE == Magnitude(Exponent(1)) and hash(ONE) == hash((ONE.exponent,))
    assert F == Poly(Q5, F.coeffs) and hash(F) == hash((Q5, F.coeffs))
    assert hash(Q5) == hash((5,)) and Q5 == PAdicField(5) and Q5 != PAdicField(7)
    # one Rationals() is as good as another, so these fields are equal
    assert PuiseuxField(Rationals()) == PuiseuxField(QQ)
    assert hash(PuiseuxField(Rationals())) == hash(PuiseuxField(QQ))
    assert PointClass(2, 0, 1) == PointClass(type=2, E=0, F=1)
    assert PointClass(2, 0, 1) != (2, 0, 1)
    assert Multiplicative(Exponent(2), "lambda") != Multiplicative(Exponent(2), "1/lambda")
    # an explicit __eq__ is kept; the hash stays that of the field tuple
    assert RealMag.of(5, 0) == RealMag.of(1, 0)
    assert hash(RealMag.of(5, 0)) == hash((Fraction(5), Fraction(0)))


def test_operands_of_other_types_are_left_to_python():
    """Each operator returns ``NotImplemented`` for an operand of another
    type, so Python tries the reflected method and then falls back:
    ``==`` to identity, the others to ``TypeError``."""
    cases = [
        (operator.sub, Exponent(1), 1, TypeError),
        (operator.lt, Exponent(1), 1, TypeError),
        (operator.le, Exponent(1), 1, TypeError),
        (operator.gt, Exponent(1), 1, TypeError),
        (operator.ge, Exponent(1), 1, TypeError),
        (operator.eq, Magnitude.unit(), 0, False),
        (operator.eq, F, 1, False),
        (operator.eq, RealMag.of(2, 1), 2, False),
    ]
    for op, x, y, want in cases:
        if want is TypeError:
            with pytest.raises(TypeError):
                op(x, y)
        else:
            assert op(x, y) is want


def test_points_compare_by_identity():
    x = Type1Point(Q5, Fraction(1, 2))
    assert x == x and x != Type1Point(Q5, Fraction(1, 2))
    assert hash(x) == object.__hash__(x)
    d = DiscPoint(Q5, Fraction(0), ONE)
    assert d != DiscPoint(Q5, Fraction(0), ONE)


def test_defaults_and_post_init_checks():
    assert SkeletonVertex(0, None, 1).genus == 0
    assert ChainPoint(Q5, ((Fraction(0), ONE),)).limit_exponent is None
    assert Domain().inequalities == () and Domain() == Domain(())
    assert ZPAdic(5, 1).r.__class__ is Fraction
    with pytest.raises(DomainError, match="positive radius"):
        DiscPoint(Q5, 0, Magnitude.zero())
    with pytest.raises(DomainError, match="4 is not prime"):
        ZPAdic(4, 1)
    with pytest.raises(DomainError, match="9 is not prime"):
        PAdicField(9)
    other = Poly.make(QQ, [QQ.one])
    with pytest.raises(DomainError, match="share one coefficient field"):
        Domain((Inequality(F, F, ONE, Rel.LEQ), Inequality(other, other, ONE, Rel.LEQ)))
    with pytest.raises(TypeError):
        PointClass(1, 2)
    with pytest.raises(TypeError):
        PointClass(1, 2, 3, F=4)


def test_assignment_raises_attribute_error():
    objs = [
        (ONE, "exponent"),
        (F, "coeffs"),
        (Type1Point(Q5, 0), "center"),
        (DiscPoint(Q5, 0, ONE), "radius"),
        (ChainPoint(Q5, ((Fraction(0), ONE),)), "discs"),
        (Q5, "p"),
        (QQ, "name"),
        (PointClass(1, 0, 0), "type"),
        (Domain(), "inequalities"),
    ]
    for obj, name in objs:
        with pytest.raises(AttributeError, match="cannot assign to field"):
            setattr(obj, name, 1)
        with pytest.raises(AttributeError):
            delattr(obj, name)


def test_import_loads_no_dataclass_machinery():
    src = Path(__file__).resolve().parent.parent / "src"
    # the package and the CLI load lazily: import every library module
    code = (
        "import sys, berkline.cli; from berkline import *; "
        "print(sorted({'dataclasses', 'inspect', 'ast'} & set(sys.modules)), "
        "len([m for m in sys.modules if m.startswith('berkline.')]))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={"PYTHONPATH": str(src)},
    ).stdout
    assert out.strip() == "[] 9"
