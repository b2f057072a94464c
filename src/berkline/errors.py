"""Exception types shared across the library, and the text layer every
grammar reads through: one scanner for parentheses with the split built
on it, and one reader for rational and integer literals."""

import re
from fractions import Fraction


class DomainError(ValueError):
    """An operation was applied outside its mathematical domain."""


class ParseError(ValueError):
    """Input text does not match the documented grammar.

    The ``rule`` attribute names the grammar production that failed, so
    front ends can report which kind of literal was malformed.
    """

    def __init__(self, rule: str, text: str, reason: str = ""):
        self.rule = rule
        self.text = text
        self.reason = reason
        msg = f"cannot parse {rule!r} from {text!r}"
        if reason:
            msg += f": {reason}"
        super().__init__(msg)


def top_level(text: str, rule: str, original: str) -> list:
    """Indices of the characters of ``text`` outside every parenthesis.

    A parenthesis counts at the depth outside it, so ``(a)`` has its two
    parentheses at the top level and ``a`` below it.  Unbalanced
    parentheses are a :class:`ParseError` naming ``rule`` and ``original``.
    """
    out = []
    depth = 0
    for i, ch in enumerate(text):
        if ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError(rule, original, "unbalanced parentheses")
        if depth == 0:
            out.append(i)
        if ch == "(":
            depth += 1
    if depth:
        raise ParseError(rule, original, "unbalanced parentheses")
    return out


def split_top(text: str, seps: str, rule: str, original: str) -> list:
    """``text`` cut at its top-level characters in ``seps``.

    A ``-`` separator stays on the part it starts, as the sign of a term,
    and a ``-`` at the very start is that sign rather than a separator;
    every other separator is dropped.  Every part must be nonempty, and a
    part that is a bare ``-`` counts as empty.
    """
    parts, start = [], 0
    for i in top_level(text, rule, original):
        ch = text[i]
        if ch in seps and (i or ch != "-"):
            parts.append(text[start:i])
            start = i if ch == "-" else i + 1
    parts.append(text[start:])
    if any(p in ("", "-") for p in parts):
        raise ParseError(rule, original, "empty part")
    return parts


# The longest digit run a literal may have: CPython's default limit for
# converting between int and str, fixed here so the grammar does not
# depend on the interpreter's setting.
MAX_DIGITS = 4300

_LITERAL = re.compile(r"(-?)([0-9]+)(?:/([0-9]+))?")


def read_literal(text: str, rule: str, original: str, integer: bool = False):
    """A rational literal ``[-]digits[/digits]`` as a ``Fraction``, or with
    ``integer`` an integer literal ``[-]digits`` as an ``int``.

    Whitespace is ignored, as everywhere in the grammars.  Anything else,
    including a ``+`` sign, decimals, exponent notation, underscores, a
    zero denominator and a run of more than ``MAX_DIGITS`` digits, is a
    :class:`ParseError`.
    """
    m = _LITERAL.fullmatch("".join(text.split()))
    if m is None or (integer and m.group(3) is not None):
        kind = "an integer" if integer else "an integer or a fraction n/d"
        raise ParseError(rule, original, f"expected {kind}")
    sign, num, den = m.groups()
    if len(num) > MAX_DIGITS or len(den or "") > MAX_DIGITS:
        raise ParseError(rule, original, f"more than {MAX_DIGITS} digits")
    n = int(sign + num)
    if integer:
        return n
    d = 1 if den is None else int(den)
    if d == 0:
        raise ParseError(rule, original, "zero denominator")
    return Fraction(n, d)
