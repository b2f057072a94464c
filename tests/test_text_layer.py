"""The shared text layer: the paren scanner and split, the literal reader,
the element text protocol, and the helpers they replaced as oracles."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from berkline import (
    QQ,
    Exponent,
    PAdicField,
    ParseError,
    Poly,
    PrimeField,
    PuiseuxField,
    TrivialField,
    format_poly,
    parse_poly,
)
from berkline.errors import MAX_DIGITS, read_literal, split_top
from berkline.polynomials import _unwrap, _wrap

from helpers import Q5, rand_padic_element, rand_puiseux_element
from oracles import (
    old_halvable_exponent,
    old_needs_parens,
    old_split_chain_items,
    old_split_terms,
    old_split_top,
    old_strip_parens,
)

BACKENDS = (
    Q5,
    PuiseuxField(QQ),
    PuiseuxField(PrimeField(3)),
    TrivialField(QQ),
    TrivialField(PrimeField(7)),
)


def _rejoin_terms(parts):
    return parts[0] + "".join(p if p.startswith("-") else "+" + p for p in parts[1:])


# (separators of the new split, the old helper, how its parts join back)
OLD_SPLITS = (
    ("+-", lambda s: old_split_terms(s, "r", s), _rejoin_terms),
    (";", lambda s: old_split_top(s, ";", "r", s), ";".join),
    (",", lambda s: old_split_top(s, ",", "r", s), ",".join),
    (",", lambda s: old_split_chain_items(s, s), ",".join),
)


def _depth_never_negative(s: str) -> bool:
    depth = 0
    for ch in s:
        depth += (ch == "(") - (ch == ")")
        if depth < 0:
            return False
    return True


@settings(max_examples=400)
@given(st.text(alphabet="()+-,;1t/T*^", max_size=16))
@example("T+")
@example("(0;0),")
@example(",(0;0)")
@example("T-")
@example("+T")
@example("1+-t")
@example("-t^(-1/2)+(1-t)*T")
def test_split_matches_the_old_helpers(s):
    """Where an old helper delimited every part (joining its parts back
    gives the input), none is empty and the depth never goes negative,
    the new split gives the same parts; on every other input it refuses.
    A part that is a bare minus sign counts as empty."""
    for seps, old, rejoin in OLD_SPLITS:
        try:
            parts = old(s)
        except ParseError:
            parts = None
        kept = (
            parts is not None
            and _depth_never_negative(s)
            and rejoin(parts) == s
            and all(p not in ("", "-") for p in parts)
        )
        if kept:
            assert split_top(s, seps, "r", s) == parts, (seps, s)
        else:
            with pytest.raises(ParseError):
                split_top(s, seps, "r", s)


def _rand_element(rng, k):
    if isinstance(k, PAdicField):
        return rand_padic_element(rng, k)
    if isinstance(k, PuiseuxField):
        return rand_puiseux_element(rng, k, max_terms=4)
    base = k.base if isinstance(k, TrivialField) else k
    if base is QQ:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    return base.from_int(rng.randint(0, 6))


def test_paren_steps_match_the_old_helpers():
    rng = random.Random(20260)
    for k in BACKENDS:
        for _ in range(60):
            text = k.format_element(_rand_element(rng, k))
            assert (_wrap(text) != text) == old_needs_parens(text), text
            for wrapped in (text, _wrap(text), f"({text})", f"(({text}))", f"({text})*(1)"):
                assert _unwrap(wrapped, wrapped) == old_strip_parens(wrapped), wrapped
        for _ in range(30):
            f = Poly.make(k, [_rand_element(rng, k) for _ in range(rng.randint(1, 5))])
            s = format_poly(f).replace(" ", "")
            for term in old_split_terms(s, "polynomial", s):
                coef = term.lstrip("-").split("*T")[0]
                assert _unwrap(coef, coef) == old_strip_parens(coef), coef
            assert parse_poly(k, format_poly(f)) == f


def test_halving_agrees_with_the_old_ladder():
    exps = [Exponent(Fraction(n, d)) for n in range(-7, 8) for d in (1, 2, 3, 4)]
    for k in BACKENDS:
        for e in exps:
            new = k.element_with_valuation(e.scale(Fraction(1, 2))) is not None
            assert new == old_halvable_exponent(k, e), (k, e)


def test_literal_reader():
    assert read_literal("-3/6", "r", "x") == Fraction(-1, 2)
    assert read_literal(" 1 / 2 ", "r", "x") == Fraction(1, 2)
    assert read_literal("-12", "r", "x", integer=True) == -12
    assert read_literal("9" * MAX_DIGITS, "r", "x") == 10**MAX_DIGITS - 1
    assert read_literal("-1/" + "9" * MAX_DIGITS, "r", "x").denominator == 10**MAX_DIGITS - 1
    for bad in ("", "-", "+3", "1.5", ".5", "1e3", "1_000", "1/-2", "1/2/3", "0x1f",
                "١", "3/", "/3", "9" * (MAX_DIGITS + 1), "1/" + "9" * (MAX_DIGITS + 1)):
        with pytest.raises(ParseError):
            read_literal(bad, "r", bad)
    with pytest.raises(ParseError, match="zero denominator"):
        read_literal("1/0", "r", "1/0")
    with pytest.raises(ParseError, match="expected an integer$"):
        read_literal("1/2", "r", "1/2", integer=True)


def test_every_backend_speaks_the_element_protocol():
    rng = random.Random(7)
    for k in (*BACKENDS, QQ, PrimeField(5)):
        for _ in range(20):
            x = _rand_element(rng, k)
            assert k.parse_element(k.format_element(x)) == x
