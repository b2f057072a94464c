"""Exception types shared across the library, the records its values are
built from, the text layer every grammar reads through (one scanner for
parentheses with the split and the ``(x; y)`` entry reader built on it,
and one reader for rational and integer literals), every bound on exact
work, and the primality test and integer valuations that the p-adic
fields and the spectrum of Z share.

This module imports nothing else of the library, so a command that needs
only these pieces loads no more."""

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


def _refuse_set(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _refuse_del(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


class Frozen:
    """Base of the hand-written ``__slots__`` records: their fields are
    set once, through the slot descriptors, and never assigned again."""

    __slots__ = ()
    __setattr__ = _refuse_set
    __delattr__ = _refuse_del


def record(cls):
    """Make ``cls`` an immutable record of its annotated fields, in order.

    The methods are those of a frozen dataclass, built from closures: an
    ``__init__`` taking the fields by position or name (a class attribute
    of the same name is the default) and then running ``__post_init__``
    when the class has one; a ``repr`` that lists the fields;
    ``AttributeError`` on assignment; and equality within one class by
    the field tuple, hashed as that tuple.  An ``__eq__`` the class
    defines itself is kept.  The hot records of the library are written
    out by hand on :class:`Frozen` instead.
    """
    names = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    post_init = getattr(cls, "__post_init__", None)
    set_field = object.__setattr__

    def __init__(self, *args, **kwargs):
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} arguments")
        values = dict(defaults)
        values.update(zip(names, args))
        for name, value in kwargs.items():
            if name not in names or name in names[: len(args)]:
                raise TypeError(f"{cls.__name__}() got an unexpected argument {name!r}")
            values[name] = value
        for name in names:
            if name not in values:
                raise TypeError(f"{cls.__name__}() missing argument {name!r}")
            set_field(self, name, values[name])
        if post_init is not None:
            post_init(self)

    def fields(self) -> tuple:
        return tuple([getattr(self, n) for n in names])

    def __repr__(self):
        inner = ", ".join(f"{n}={getattr(self, n)!r}" for n in names)
        return f"{self.__class__.__qualname__}({inner})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or fields(self) == fields(other)

    def __hash__(self):
        return hash(fields(self))

    methods = [__init__, __repr__]
    if "__eq__" not in cls.__dict__:
        methods.append(__eq__)
    if cls.__dict__.get("__hash__") is None:  # None: Python unsets it beside an own __eq__
        methods.append(__hash__)
    for method in methods:
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls.__setattr__, cls.__delattr__ = _refuse_set, _refuse_del
    return cls


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


def read_pair(item: str, rule: str, original: str, what: str) -> tuple:
    """The two sides of a ``(x; y)`` list entry, cut at its first ``;``.

    Any other shape is a :class:`ParseError` naming ``rule`` and
    ``original``, with the reason ``bad <what> <item>``.
    """
    left, sep, right = item[1:-1].partition(";")
    if not (item.startswith("(") and item.endswith(")") and sep):
        raise ParseError(rule, original, f"bad {what} {item!r}")
    return left, right


# ---------------------------------------------------------------------
# Bounds of exact work: past each, the library raises DomainError (the
# CLI exits 4) up front instead of running for minutes or without end.

# The longest digit run a literal may have: CPython's default limit for
# converting between int and str, fixed here so the grammar does not
# depend on the interpreter's setting.
MAX_DIGITS = 4300

# The largest degree the polynomial grammar accepts: ``T^k`` stores k+1
# coefficients, so an unbounded k would exhaust memory.
MAX_DEGREE = 4096

# The largest number, in bits, that exact work over Q may build: the
# value ``v**n * f(u/v)`` of an evaluation, the coefficients of a Taylor
# shift (whose constant term is ``f(a)``) and a power ``p**e``.  Each
# knows its size before any arithmetic runs, so work beyond this is
# refused with DomainError up front instead of running for minutes.
MAX_EXACT_BITS = 1 << 20

# The most term operations a sweep over Puiseux sums may make, estimated
# from the supports up front: terms multiply even where bits stay small.
MAX_TERM_WORK = 1 << 26

# Miller-Rabin with the first thirteen primes as bases decides primality
# exactly below this bound (Sorenson & Webster, "Strong pseudoprimes to
# twelve prime bases", Math. Comp. 2017); above it no answer is given.
PRIME_LIMIT = 3317044064679887385961981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# Factoring trial-divides only below this bound; larger prime factors
# come from Pollard's rho.
_TRIAL_BOUND = 1 << 10

# Pollard's rho gets this many steps per cofactor: it expects about
# sqrt(q) for a prime factor q, so factors near 10^9 split at once and a
# cofactor it cannot split is refused in well under two seconds.
_RHO_STEPS = 1 << 18

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


def check_bits(bits: int, what: str) -> None:
    """Refuse exact work whose numbers would exceed ``MAX_EXACT_BITS``."""
    if bits > MAX_EXACT_BITS:
        raise DomainError(f"{what} would need numbers above {MAX_EXACT_BITS} bits")


# ---------------------------------------------------------------------
# Primality and valuations of integers, shared by the p-adic fields and
# the spectrum of Z


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for ``n < PRIME_LIMIT``.

    Larger ``n`` raise :class:`DomainError` rather than risk a wrong
    verdict or an unbounded search.
    """
    if n >= PRIME_LIMIT:
        raise DomainError(f"primality is decided only below {PRIME_LIMIT}")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _vp_int(m: int, p: int) -> int:
    """The exponent of ``p`` in the nonzero integer ``m``."""
    v = 0
    while m % p == 0:
        m //= p
        v += 1
    return v


def _vp(x: Fraction, p: int) -> int:
    """The p-adic valuation of the nonzero rational (or int) ``x``."""
    d = x.denominator
    v = _vp_int(x.numerator, p)
    return v if d == 1 else v - _vp_int(d, p)
