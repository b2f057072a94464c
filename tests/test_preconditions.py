"""Every precondition check a caller can reach, raised in process.

One row per check: the call, the exception it raises and its message.
A second table pins the edge values that the same code returns instead
of raising (zero magnitudes, empty polynomials, display forms), so each
branch beside a check runs too.
"""

from fractions import Fraction

import pytest

from berkline import (
    INF,
    INFINITY_DIR,
    GENERIC,
    MAG_ONE,
    RM_ONE,
    Annulus,
    BranchData,
    ChainPoint,
    ClosedDisc,
    DiscMinusHoles,
    DiscPoint,
    Domain,
    DomainError,
    EXP_ONE,
    Exponent,
    Inequality,
    Magnitude,
    Ordering,
    Poly,
    PointClass,
    PrimeField,
    RealMag,
    Rel,
    SkeletonGraph,
    Type1Point,
    ZArch,
    convex_hull,
    count_roots_in_disc,
    direction,
    exp_compare,
    fiber_count,
    hasse_derivative,
    in_interior,
    is_constant_times_square,
    is_rational_over_value_group,
    nadic_spectral,
    newton_slopes,
    parse_domain,
    parse_field,
    parse_poly,
    poly_divmod,
    poly_gcd,
    retract_to_hull,
    squarefree_part,
    zpoint_limit_check,
)
from helpers import LSER, Q5

ZERO = Magnitude.zero()
QT = parse_field("trivial:Q")
F = parse_poly(Q5, "T + 1")
ZERO_POLY = Poly.make(Q5, ())
GAUSS = DiscPoint(Q5, Fraction(0), MAG_ONE)
CHAIN = ChainPoint(Q5, ((Fraction(0), MAG_ONE),))
HULL = convex_hull([Type1Point(Q5, Fraction(0)), Type1Point(Q5, Fraction(1))])

_RAISES = [
    # domains: zero radii and mixed fields
    (lambda: Inequality(F, F, ZERO, Rel.LEQ), DomainError,
     "inequality bounds must be positive magnitudes"),
    (lambda: Inequality(F, parse_poly(LSER, "T"), MAG_ONE, Rel.LEQ), DomainError,
     "inequality sides live over different fields"),
    (lambda: ClosedDisc(Q5, Fraction(0), ZERO), DomainError, "disc radius must be positive"),
    (lambda: Annulus(Q5, Fraction(0), ZERO, MAG_ONE), DomainError,
     "annulus radii must be positive"),
    (lambda: DiscMinusHoles(Q5, Fraction(0), ZERO, ()), DomainError,
     "disc radius must be positive"),
    (lambda: DiscMinusHoles(Q5, Fraction(0), MAG_ONE, ((Fraction(0), ZERO),)), DomainError,
     "hole radii must be positive"),
    # line: chain radii, hulls, retraction and directions
    (lambda: ChainPoint(Q5, ((Fraction(0), ZERO),)), DomainError,
     "chain radii must be positive"),
    (lambda: convex_hull([]), DomainError, "hull of an empty point set"),
    (lambda: convex_hull([CHAIN]), DomainError, "hulls of chain points are not supported"),
    (lambda: convex_hull([GAUSS, DiscPoint(LSER, LSER.zero, MAG_ONE)]), DomainError,
     "points belong to different coefficient fields"),
    (lambda: retract_to_hull(CHAIN, HULL), DomainError,
     "retraction of chain points is not supported"),
    (lambda: retract_to_hull(GAUSS, SkeletonGraph((), (), frozenset())), DomainError,
     "retraction onto an empty graph"),
    (lambda: direction(Type1Point(Q5, Fraction(0)), GAUSS), DomainError,
     "directions are defined at disc points"),
    (lambda: direction(GAUSS, GAUSS), DomainError, "no direction from a point to itself"),
    (lambda: direction(GAUSS, DiscPoint(LSER, LSER.zero, MAG_ONE)), DomainError,
     "points belong to different coefficient fields"),
    # hyperelliptic
    (lambda: BranchData.from_roots(Q5, []), DomainError, "at least one root is required"),
    (lambda: fiber_count(BranchData.from_roots(Q5, [Fraction(0)]),
                         DiscPoint(LSER, LSER.zero, MAG_ONE)), DomainError,
     "cover and point fields differ"),
    # polynomials
    (lambda: hasse_derivative(F, -1), DomainError,
     "Hasse derivative index must be non-negative"),
    (lambda: poly_divmod(F, ZERO_POLY), DomainError, "polynomial division by zero"),
    (lambda: squarefree_part(ZERO_POLY), DomainError,
     "the zero polynomial has no squarefree part"),
    (lambda: is_constant_times_square(ZERO_POLY), DomainError, "zero polynomial"),
    (lambda: ZERO_POLY.leading_coefficient(), DomainError,
     "zero polynomial has no leading coefficient"),
    (lambda: newton_slopes(ZERO_POLY), DomainError, "the zero polynomial has no root data"),
    (lambda: count_roots_in_disc(ZERO_POLY, Fraction(0), MAG_ONE), DomainError,
     "the zero polynomial has no root data"),
    # exponents and magnitudes
    (lambda: ZERO ** 0, DomainError, "zero magnitude has no non-positive powers"),
    (lambda: MAG_ONE.root(0), DomainError, "root index must be a positive integer"),
    (lambda: exp_compare(1, 2), TypeError, "exp_compare needs two exponents"),
    (lambda: is_rational_over_value_group(MAG_ONE, Exponent(0, 1)), DomainError,
     "value-group generator must be rational"),
    (lambda: is_rational_over_value_group(ZERO, EXP_ONE), DomainError,
     "zero magnitude is not a radius"),
    (lambda: PointClass(1, 0, 0, 0), TypeError, "PointClass\\(\\) takes 3 arguments"),
    # zspectrum
    (lambda: RealMag.zero() ** 0, DomainError, "zero magnitude has no nonpositive powers"),
    (lambda: RealMag.zero().inverse(), DomainError, "zero magnitude has no inverse"),
    (lambda: RM_ONE.root(0), DomainError, "root order must be positive"),
    (lambda: RealMag.of(0, 1), DomainError, "magnitude base must be positive"),
    (lambda: nadic_spectral(3, 1), DomainError,
     "the norm index must be an integer of size at least 2"),
    # fields: zero inverses and non-integral quotients
    (lambda: PrimeField(5).inv(10), DomainError, "division by zero in F_5"),
    (lambda: LSER.inv(LSER.zero), DomainError, "division by zero"),
    (lambda: LSER.residue_of_quotient(LSER.one, LSER.zero), DomainError, "division by zero"),
    (lambda: LSER.residue_of_quotient(LSER.parse_element("t^(-1)"), LSER.one), DomainError,
     "not integral: magnitude exceeds one"),
    (lambda: QT.residue_of_quotient(Fraction(1), Fraction(0)), DomainError,
     "division by zero"),
    (lambda: parse_field("padic:" + "7" * 5000), DomainError,
     "primality is decided only below"),
]


@pytest.mark.parametrize("call, exc, message", _RAISES)
def test_precondition_raises(call, exc, message):
    with pytest.raises(exc, match=message):
        call()


_VALUES = [
    (lambda: ZERO ** 2, ZERO),
    (lambda: ZERO.root(2), ZERO),
    (lambda: Magnitude.finite(Fraction(1, 2)), Magnitude(Exponent(Fraction(1, 2)))),
    (lambda: RealMag.zero() ** 2, RealMag.zero()),
    (lambda: RealMag.zero().root(2), RealMag.zero()),
    (lambda: RealMag.zero().to_float(), 0.0),
    (lambda: RM_ONE.compare(RealMag.zero()), Ordering.GT),
    (lambda: ZERO_POLY.monic(), ZERO_POLY),
    (lambda: poly_gcd(ZERO_POLY, ZERO_POLY), ZERO_POLY),
    (lambda: LSER.div(LSER.t, LSER.t), LSER.one),
    (lambda: in_interior(Type1Point(Q5, Fraction(1, 5)), ClosedDisc(Q5, Fraction(0), MAG_ONE)),
     False),
    (lambda: parse_domain(Q5, "everything"), Domain.everything()),
    (lambda: zpoint_limit_check(lambda r: ZArch(1 - r), [Fraction(1, 2), Fraction(1, 4)],
                                [2]).monotone, False),
    # display forms and the protocol of the infinite length
    (lambda: str(GAUSS.radius.exponent), "0"),
    (lambda: str(ZERO), "0"),
    (lambda: str(RealMag.zero()), "0"),
    (lambda: str(RealMag.of(5, -1)), "5^(-1)"),
    (lambda: str(F), "T + 1"),
    (lambda: str(Type1Point(Q5, Fraction(1, 5))), "pt1(1/5)"),
    (lambda: str(CHAIN), "chain[(0;0)]"),
    (lambda: repr(GENERIC), "GENERIC"),
    (lambda: repr(INFINITY_DIR), "DIR_INF"),
    (lambda: hash(INF) == hash(INF) and INF <= INF, True),
]


@pytest.mark.parametrize("call, expected", _VALUES)
def test_edge_values(call, expected):
    assert call() == expected
