"""Exact valued coefficient fields and their residue arithmetic.

Three backends share one duck-typed interface, in the style of a
computer-algebra coefficient domain: the field object owns all the
arithmetic, and elements are plain values.

* ``PAdicField(p)``: the rationals with the p-adic valuation.  Elements
  are ``Fraction``; the residue field is F_p.
* ``PuiseuxField(base)``: finite-support sums ``sum c_i * t^(g_i)`` with
  rational exponents ``g_i`` and coefficients in Q or F_p, ordered by
  exponent, valued by the smallest exponent.  Elements are tuples of
  ``(Fraction, coefficient)`` pairs.  Finite support makes this a ring
  whose units are the monomials, so ``inv`` is partial by design.
* ``TrivialField(base)``: the base field with the trivial valuation
  (every nonzero element has magnitude one, and is its own residue).

Magnitudes come back as :class:`berkline.exponents.Magnitude` values in
log scale, so ``valuation(p) == rho**1`` for ``PAdicField(p)`` and
``valuation(t) == rho**1`` for any Puiseux backend.

Four methods serve the polynomial layer: ``mul_coeffs(*factors)``, the
product of one or more coefficient lists in one call,
``taylor_shift_coeffs(coeffs, a, count)``, the first ``count``
coefficients of ``f(T + a)`` (so ``count = 1`` is ``f(a)``, Horner's
rule as the first row of the sweep), ``lowest_terms(coeffs, a)`` (the
valued backends), the valuation of each coefficient of ``f(T + a)`` and
on request a lowest term of one, and ``trim_center`` (the valued
backends), a center of the same disc with everything of size at most
the radius removed.  The first two are written once for both base
fields, on Python ints (:class:`_IntKernels`): over Q with the
denominators cleared once per factor, over F_p reduced mod ``p`` as
values are stored.  ``padic`` and ``trivial`` backends bind them, and
the element arithmetic, from their base at construction.  Puiseux
fields run them on integer exponent keys through the base's keyed
kernels, which take and return one int form: rows of int dicts
``{key: value}`` at one scale, with no zero values (reduced mod ``p``
over F_p).  :func:`_keyed` puts elements on that form, keying and
lifting each term once, and :func:`_from_int_keys` lowers rows to
elements.  ``keyed_product`` keeps a product on that form, as
:class:`KeyedRows`, which a :class:`~berkline.polynomials.Poly` made
by ``Poly.product`` holds until its ``coeffs`` are first read.
``lowest_terms`` reads each row's least key and the value there,
through the base's ``lowest_keyed`` when it shifts (over Q off rows
packed one int per row unless one would be wider than
``MAX_EXACT_BITS``, over F_p off the dict rows), from coefficients or
from :class:`KeyedRows` as they are, and lowers one term of each row
it is asked for.  Sweeps and products are refused up front when their
estimated term operations are past ``MAX_TERM_WORK``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import isqrt, lcm
from typing import Optional, Tuple, Union

from .errors import (
    MAX_EXACT_BITS, MAX_TERM_WORK, PRIME_LIMIT, DomainError, ParseError, _is_prime, _vp,
    check_bits, read_literal, record, split_top,
)
from .exponents import EXP_ZERO, MAG_ZERO, Exponent, Magnitude, _make, int_magnitude


# Dense shifts and evaluations of at most this many coefficients take the
# direct fold through the base field's ``add`` and ``mul``: faster there
# than the lift to ints, over Q and F_p alike.
_DIRECT_FOLD = 2

def _check_q_size(lf_bits: int, n: int, A: int, D: int, count: int) -> None:
    """Refuse, past ``MAX_EXACT_BITS``, a sweep of ``count`` rows over Q
    that shifts ``n`` coefficients, with ``L*f`` of ``lf_bits``, by
    ``A/D`` (keyed rows: ``A`` sums the numerators of ``D*a``).  One row
    is ``D**(n-1) * L*f(A/D)``; a full shift has
    ``|G_i| <= max |F_j| * (2*|A|)**(n-1)`` with ``F_j = L*D**(n-1-j)*f_j``."""
    m = n - 1
    if count == 1:
        size = lf_bits + m * max(A.bit_length(), D.bit_length()) + m.bit_length()
        check_bits(size, "exact evaluation")
    else:
        check_bits(lf_bits + m * (A.bit_length() + D.bit_length() + 1), "a Taylor shift")


class _IntKernels:
    """The polynomial kernels of both base fields, written once on Python
    ints: the fraction-free sweeps of von zur Gathen and Gerhard, "Fast
    algorithms for Taylor shifts and certain difference equations"
    (ISSAC 1997).  A base field supplies ``char``, ``_lift(values)``,
    its values as ints at one common scale, and ``_lower(z, scale)``,
    the value of such an int: over Q the scale is the lcm of the
    denominators, over F_p it is 1 and lowering reduces mod ``p``.  As
    ``Z -> F_p`` commutes with ``+`` and ``*``, the ints are reduced mod
    the characteristic (over Q, not at all) as they are stored.

    Dense coefficient lists (low degree first) serve polynomials over the
    field itself, and through forwarding over ``padic`` and ``trivial``
    backends.  Keyed rows serve Puiseux sums with this base, on the one
    form :meth:`_key` gives: a row per coefficient, an int dict
    ``{key: value}`` with no zero values, all rows at one scale.  Every
    keyed kernel takes its rows on that form and returns them on it, not
    lowered, with the scale to lower them at; the center of a sweep
    enters as the ``(key, value)`` pairs of its one row.  Products
    multiply one or more factors in order, from the first.
    """

    def taylor_shift_coeffs(self, coeffs, a, count) -> list:
        """The first ``count`` coefficients of ``f(T + a)``: ``a`` is
        folded into one row at a time, so the cost is ``count`` times the
        degree with no binomials, and ``count = 1`` is Horner's rule.

        With ``L`` the scale of ``f`` and ``a = A/D``,
        ``F_j = L*D**(n-1-j)*f_j`` are integers, shifting ``F`` by ``A``
        gives ``G`` and ``g_i = G_i / (L*D**(n-1-i))``; only the first
        ``count`` are lowered.  Row 0 brings the powers of ``D`` in as it
        goes, which is Horner's rule homogenised, and keeps its partial
        sums only when later rows read them.  Over Q :func:`_check_q_size`
        bounds the size of the numbers first.  Sweeps of at most
        :data:`_DIRECT_FOLD` coefficients take the direct fold."""
        n = len(coeffs)
        if n <= _DIRECT_FOLD:  # f(T + a) = (f_0 + a*f_1) + f_1*T
            out = list(coeffs[:count])
            if n == 2 and count:
                out[0] = self.add(out[0], self.mul(a, coeffs[1]))
            return out
        A, D = a.numerator, a.denominator  # over F_p, ``a`` and 1
        if not A or not count:
            return list(coeffs[:count])
        m, lower = self.char, self._lower
        cs, L = self._lift(coeffs)
        if not m:
            _check_q_size(max(c.bit_length() for c in cs), n, A, D, count)
        acc, power = cs[-1], 1
        for j in range(n - 2, -1, -1):
            power *= D
            acc = cs[j] * power + A * acc
            if m:
                acc %= m
            if count > 1:
                cs[j] = acc
        scale = L * power
        out = [lower(acc, scale)]
        for i in range(1, count):
            acc = cs[-1]
            for j in range(n - 2, i - 1, -1):
                acc = cs[j] + A * acc
                if m:
                    acc %= m
                cs[j] = acc
            scale //= D
            out.append(lower(acc, scale))
        return out

    def mul_coeffs(self, *factors) -> list:
        """The schoolbook product of one or more nonempty coefficient
        lists: each factor enters lifted at its own scale, and each output
        coefficient is lowered once, at the product of the scales."""
        m = self.char
        out, den = self._lift(factors[0])
        for k, factor in enumerate(factors[1:]):
            ys, scale = self._lift(factor)
            den *= scale
            if m and k:  # a running product, before it grows again
                out = [z % m for z in out]
            xs, out = out, [0] * (len(out) + len(ys) - 1)
            for i, x in enumerate(xs):
                if x:
                    for j, y in enumerate(ys, i):
                        out[j] += x * y
        lower = self._lower
        return [lower(z, den) for z in out]

    def _key(self, elems, d) -> tuple:
        """Puiseux elements over this base on the keyed form, each term
        keyed and lifted in one pass: row ``i`` is ``{g*d: L*c}`` for the
        terms ``(g, c)`` of element ``i``, with ``L`` the lcm of the
        denominators of the values (an int is its own numerator, so over
        F_p ``L`` is 1), and ``L``.  An element whose exponents repeat (a
        sum not in canonical form) has the values of each key summed and
        what cancels (mod ``p`` over F_p) dropped; a canonical one costs
        one length comparison."""
        m, rows = self.char, []
        L = lcm(*[c.denominator for x in elems for _, c in x])
        for x in elems:
            row = {g.numerator * (d // g.denominator): c.numerator * (L // c.denominator)
                   for g, c in x}
            if len(row) < len(x):
                row = {}
                for g, c in x:
                    key = g.numerator * (d // g.denominator)
                    row[key] = row.get(key, 0) + c.numerator * (L // c.denominator)
                if m:
                    row = {g: c % m for g, c in row.items() if c % m}
                else:
                    row = {g: c for g, c in row.items() if c}
            rows.append(row)
        return rows, L

    def shift_keyed(self, shift, D, rows, L, count):
        """:meth:`taylor_shift_coeffs` term by term on keyed rows, without
        the lowering: the terms of ``D*a`` as int pairs and the rows of
        ``f``, at the scales ``D`` and ``L`` (see
        :meth:`PuiseuxField._sweep`, which also bounds the sizes).  The
        sweep updates the rows in place.  It folds ``D*a`` in with one
        int product per pair of terms, and zeros (over F_p, after the
        reduction) are dropped once per row update.  A fold from an empty
        row adds nothing and is skipped, so over F_p, where most rows of
        a full sweep vanish (Lucas' theorem on the binomials), the sweep
        costs only its nonzero rows.

        Returns the first ``count`` rows as int dicts with no zero values,
        the scale of row 0 and ``D``; row ``i`` is at scale
        ``scale // D**i``.  ``count`` is at least 1: with no pass the
        rows would come back unshifted."""
        n, m = len(rows), self.char
        power = 1
        for i in range(count):
            for j in range(n - 2, i - 1, -1):
                # the last pass reads each row once, so it lets it go
                src = rows.pop() if i == count - 1 else rows[j + 1]
                row = rows[j]
                if i == 0 and D > 1:  # the powers of D, as in taylor_shift_coeffs
                    power *= D
                    row = rows[j] = {g: c * power for g, c in row.items()}
                if not src:
                    continue
                get, terms = row.get, src.items()
                for ga, ca in shift:
                    for gs, cs in terms:
                        key = ga + gs
                        row[key] = get(key, 0) + ca * cs
                if m:
                    rows[j] = {g: c % m for g, c in row.items() if c % m}
                else:
                    rows[j] = {g: c for g, c in row.items() if c}
        return rows, L * power, D

    def lowest_keyed(self, shift, D, rows, L):
        """The lowest term of each row of the full sweep of
        :meth:`shift_keyed`: ``None`` for a zero row, else its least key
        and the int value there, with the scale of row 0 and ``D`` as
        there.  This reader runs the dict sweep, which over F_p stays
        sparse where the binomials vanish mod ``p`` (Lucas' theorem); a
        lift of the rows to Z would lose those zeros and the reduction."""
        rows, scale, D = self.shift_keyed(shift, D, rows, L, len(rows))
        return [min(row.items()) if row else None for row in rows], scale, D

    def mul_keyed(self, *factors):
        """:meth:`mul_coeffs` term by term on keyed rows, without the
        lowering: each factor as ``(rows, scale)`` of :meth:`_key`, and
        the product's rows on the same form, all at one scale, and that
        scale."""
        m = self.char
        xs, den = factors[0]
        for k, (ys, scale) in enumerate(factors[1:]):
            den *= scale
            if m and k:  # a running product, before it grows again
                xs = [{g: c % m for g, c in x.items() if c % m} for x in xs]
            ys = [y.items() for y in ys]
            out = [{} for _ in range(len(xs) + len(ys) - 1)]
            for i, x in enumerate(xs):
                if not x:
                    continue
                x = x.items()
                for j, y in enumerate(ys, i):
                    row = out[j]
                    get = row.get
                    for ga, ca in x:
                        for gb, cb in y:
                            key = ga + gb
                            row[key] = get(key, 0) + ca * cb
            xs = out
        if m:
            return [{g: c % m for g, c in row.items() if c % m} for row in xs], den
        return [row if all(row.values()) else {g: c for g, c in row.items() if c}
                for row in xs], den


class KeyedRows(tuple):
    """A list of Puiseux elements held on the keyed kernels' own form,
    ``(d, rows, scale)``: row ``i`` is an int dict ``{key: value}`` for
    the element ``sum value/scale * t^(key/d)``, with no zero values
    (over F_p reduced mod ``p``) and no trailing empty rows.
    :meth:`PuiseuxField.keyed_product` makes it, and
    :meth:`PuiseuxField.lowest_terms` reads it as it is."""

    __slots__ = ()


def _keyed(base, *groups, d=1):
    """The lcm of ``d`` and the denominators of the exponents of groups
    of Puiseux elements over ``base``, then each group on int keys over
    it by ``base._key``: ``(d, (rows, scale), ...)``."""
    d = lcm(d, *[g.denominator for elems in groups for x in elems for g, _ in x])
    return (d, *[base._key(elems, d) for elems in groups])


def _from_int_keys(base, d, rows, scale, D=1) -> list:
    """Puiseux elements over ``base`` from the int rows of its keyed
    kernels, keys scaled by ``d`` and row ``i`` at scale ``scale // D**i``:
    each distinct key becomes a ``Fraction`` once, each value is lowered
    in the same pass, and zeros are dropped."""
    exps = {g: Fraction(g, d) for g in set().union(*rows)}
    lower, out = base._lower, []
    for row in rows:
        out.append(tuple([(exps[g], c) for g in sorted(row) if (c := lower(row[g], scale))]))
        scale //= D
    return out


def _check_work(work, what) -> None:
    if work > MAX_TERM_WORK:
        raise DomainError(f"{what} would need {work} term operations, above {MAX_TERM_WORK}")


def _product_work(factors) -> int:
    """An upper bound on the term operations of ``mul_keyed`` on the rows
    of keyed factors: each step costs the terms of the running product
    times those of the next factor, and a running row holds no more
    terms than the pairs of terms that reach it or the span of the keys
    they reach.  A product of two factors costs exactly its pairs of
    terms."""
    def spans(factor):
        return [(min(row), max(row), len(row)) if row else None for row in factor]

    xs, work = spans(factors[0]), 0
    for k, factor in enumerate(factors[1:], 2):
        ys = spans(factor)
        work += sum([x[2] for x in xs if x]) * sum([y[2] for y in ys if y])
        if k == len(factors):
            break
        out = [None] * (len(xs) + len(ys) - 1)
        for i, x in enumerate(xs):
            if x:
                for j, y in enumerate(ys, i):
                    if y:
                        lo, hi, terms = x[0] + y[0], x[1] + y[1], x[2] * y[2]
                        if o := out[j]:
                            lo, hi, terms = min(lo, o[0]), max(hi, o[1]), terms + o[2]
                        out[j] = lo, hi, terms
        xs = [o and (o[0], o[1], min(o[2], o[1] - o[0] + 1)) for o in out]
    return work


def _term_work(shift, rows, count) -> int:
    """An upper bound on the term operations of a keyed sweep of
    ``count`` rows, from the terms of ``D*a`` and the rows: each of at
    most ``count * n`` folds costs ``s = |supp a|`` per term of its row,
    and no row has more terms than the span of the keys it can reach or
    ``sum_j |supp f_j| * C(j+s-1, s-1)`` (``a**m`` has at most
    ``C(m+s-1, s-1)`` terms; the span alone over-counts when exponents
    have large denominators)."""
    n, s = len(rows), len(shift)
    keys = [g for g, _ in shift]
    down, up = min([0, *keys]), max([0, *keys])
    lo = min([min(row) + j * down for j, row in enumerate(rows) if row], default=0)
    hi = max([max(row) + j * up for j, row in enumerate(rows) if row], default=0)
    span = hi - lo + 1
    terms, binom = 0, 1  # binom = C(j+s-1, s-1)
    for j, row in enumerate(rows):
        terms += len(row) * binom
        if terms >= span:
            terms = span
            break
        binom = binom * (j + s) // (j + 1)
    return count * n * terms * s


# ---------------------------------------------------------------------
# Base / residue fields


@record
class Rationals(_IntKernels):
    """The rational numbers as a coefficient or residue field.

    The polynomial kernels run fraction-free (:class:`_IntKernels`;
    Bareiss 1968): the denominators are cleared once, the sweep runs on
    Python ints, and each output coefficient is divided once.  The disc
    reader :meth:`lowest_keyed` packs each keyed row into one int unless
    a packed row would be wider than ``MAX_EXACT_BITS``.
    """

    char = 0

    @property
    def name(self) -> str:
        return "Q"

    @property
    def zero(self) -> Fraction:
        return Fraction(0)

    @property
    def one(self) -> Fraction:
        return Fraction(1)

    def from_int(self, n: int) -> Fraction:
        return Fraction(n)

    def add(self, x, y):
        return x + y

    def sub(self, x, y):
        return x - y

    def mul(self, x, y):
        return x * y

    def neg(self, x):
        return -x

    def inv(self, x):
        if x == 0:
            raise DomainError("division by zero in Q")
        return 1 / Fraction(x)

    def div(self, x, y):
        return self.mul(x, self.inv(y))

    def is_zero(self, x) -> bool:
        return x == 0

    def is_square(self, x) -> bool:
        if x < 0:
            return False
        n, d = x.numerator, x.denominator
        return isqrt(n) ** 2 == n and isqrt(d) ** 2 == d

    def format_element(self, x) -> str:
        return str(Fraction(x))

    def parse_element(self, text: str) -> Fraction:
        return read_literal(text, "rational", text)

    # -- the integer lift of the kernels --------------------------------

    def _lift(self, values):
        """The ints ``L*c`` of the values ``c``, and ``L``, the lcm of
        their denominators."""
        L = lcm(*[c.denominator for c in values])
        return [c.numerator * (L // c.denominator) for c in values], L

    _lower = staticmethod(Fraction)

    def lowest_keyed(self, shift, D, rows, L):
        """:meth:`_IntKernels.lowest_keyed` from the packed rows of
        :meth:`_packed_sweep` when it packs them, else from the dict
        rows.  A final row with every slot below ``2**(W-1)`` in absolute
        value has one expansion in such slots: if ``c != 0`` is its
        lowest slot, at ``q``, the row is ``2**(q*W) * (c + 2**W * r)``
        and ``c`` has fewer than ``W - 1`` trailing zero bits, so ``q``
        is the row's trailing zero count floor-divided by ``W`` and ``c``
        is that slot read as a signed ``W``-bit value (a negative ``c``
        borrows from the slots above it, and the signed reading gives
        the borrow back).  Nothing is unpacked."""
        sweep = self._packed_sweep(shift, D, rows, L)
        if sweep is None:
            return super().lowest_keyed(shift, D, rows, L)
        W, lo, final, scale, D = sweep
        half, mask, lows = 1 << (W - 1), (1 << W) - 1, []
        for low, row in zip(lo, final):
            if row:
                q = ((row & -row).bit_length() - 1) // W
                c = (row >> q * W) & mask
                lows.append((low + q, c - mask - 1 if c >= half else c))
            else:
                lows.append(None)
        return lows, scale, D

    def _packed_sweep(self, shift, D, rows, L):
        """The full keyed sweep of :meth:`shift_keyed` on packed rows
        (Kronecker substitution; Harvey, arXiv:0712.4046), or ``None``
        where a packed row would be too wide.  Returns ``W``, the key
        offsets ``lo``, an iterator over the final rows in order (each
        let go once it is final), the scale of row 0 and ``D``.

        Row ``j`` is one int holding its value at key ``k`` in the ``W``
        bits from ``W*(k - lo_j)``: the row as a polynomial in ``x``,
        evaluated at ``x = 2**W``, so sums, products by ints and
        whole-slot shifts are exact on it whatever its slots hold on the
        way.  A fold from row ``j + 1`` adds
        ``(src * c) << W*(g + lo_(j+1) - lo_j)`` once per term ``(g, c)``
        of ``D*a``.  The offset ``lo_j``, the least key row ``j`` can
        reach, is ``min(least key of F_j, lo_(j+1) + min g)``, so no
        shift is negative.

        Width.  With ``l1 = max_j ||L*f_j||_1`` and ``A1 = ||D*a||_1``
        (sums of absolute values), row ``i`` ends as
        ``G_i = sum_(j>=i) C(j, i) * L*f_j * D**(n-1-j) * (D*a)**(j-i)``.
        As ``||xy||_1 <= ||x||_1 * ||y||_1``, ``C(j, i) <= 2**(n-1)``
        and ``sum_(k<=m) D**(m-k) * A1**k <= (A1 + D)**m``,
        ``||G_i||_1 <= l1 * 2**(n-1) * (A1 + D)**(n-1-i)``, so every
        final slot has ``|c| < 2**bits(l1) * 2**(n-1) *
        2**bits((A1 + D)**(n-1)) = 2**(W-1)``.

        Choice.  A row of key span ``k`` packs into about ``k*W`` bits
        however few terms it holds, so a sparse row over a wide span (a
        center such as ``t^(1/1000) + t^(999/1000)``) would cost gigabytes
        packed.  Where a packed row would be wider than
        ``MAX_EXACT_BITS``, the dict rows are read instead.
        :func:`_check_q_size` has refused first, in
        :meth:`PuiseuxField._sweep`, which also bounds ``(A1 + D)**(n-1)``
        before it is formed."""
        n, m = len(rows), len(rows) - 1
        A1 = sum([abs(c) for _, c in shift])
        l1 = max([sum([abs(c) for c in row.values()]) for row in rows])
        W = l1.bit_length() + m + ((A1 + D) ** m).bit_length() + 1
        keys = [g for g, _ in shift]
        down, up = min(keys, default=0), max(keys, default=0)
        lo, low, high, widest = [0] * n, None, None, 0
        for j in range(m, -1, -1):
            row = rows[j]
            if low is not None:
                low, high = low + down, high + up
            if row:
                low = min(row) if low is None else min(low, *row)
                high = max(row) if high is None else max(high, *row)
            if low is not None:
                lo[j], widest = low, max(widest, high - low + 1)
        if widest * W > MAX_EXACT_BITS:
            return None
        packed = [sum([c << W * (g - lo[j]) for g, c in row.items()])
                  for j, row in enumerate(rows)]
        folds = [[(W * (g + lo[j + 1] - lo[j]), c) for g, c in shift] for j in range(m)]

        def final():
            power = 1
            for i in range(n):
                for j in range(m - 1, i - 1, -1):
                    row = packed[j]
                    if i == 0 and D > 1:  # the powers of D, as in shift_keyed
                        power *= D
                        row *= power
                    src = packed[j + 1]
                    if src:
                        for sh, c in folds[j]:
                            row += (src * c) << sh
                    packed[j] = row
                row, packed[i] = packed[i], None
                yield row

        return W, lo, final(), L * D**m, D


@record
class PrimeField(_IntKernels):
    """The prime field F_p; elements are ints reduced into [0, p)."""

    p: int

    def __post_init__(self):
        if not _is_prime(self.p):
            raise DomainError(f"{self.p} is not prime")

    @property
    def char(self) -> int:
        return self.p

    @property
    def name(self) -> str:
        return f"F{self.p}"

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    def from_int(self, n: int) -> int:
        return n % self.p

    def add(self, x, y):
        return (x + y) % self.p

    def sub(self, x, y):
        return (x - y) % self.p

    def mul(self, x, y):
        return (x * y) % self.p

    def neg(self, x):
        return (-x) % self.p

    def inv(self, x):
        if x % self.p == 0:
            raise DomainError(f"division by zero in F_{self.p}")
        return pow(x, -1, self.p)

    def div(self, x, y):
        return self.mul(x, self.inv(y))

    def is_zero(self, x) -> bool:
        return x % self.p == 0

    def is_square(self, x) -> bool:
        x %= self.p
        if x == 0 or self.p == 2:
            return True
        return pow(x, (self.p - 1) // 2, self.p) == 1

    def format_element(self, x) -> str:
        return str(x % self.p)

    def parse_element(self, text: str) -> int:
        return read_literal(text, "prime-field element", text, integer=True) % self.p

    # -- the integer lift of the kernels --------------------------------

    def _lift(self, values):
        return list(values), 1

    def _lower(self, z, scale):
        return z % self.p


QQ = Rationals()

BaseField = Union[Rationals, PrimeField]


def parse_base_field(name: str) -> BaseField:
    name = name.strip()
    if name == "Q":
        return QQ
    m = re.match(r"^F(\d+)$", name)
    if m:
        return PrimeField(_parse_prime(m.group(1), "base field", name))
    raise ParseError("base field", name)


def _parse_prime(digits: str, rule: str, original: str) -> int:
    """A prime written in decimal.  A composite is a grammar error; a
    number too large to decide raises :class:`DomainError`."""
    try:
        p = int(digits)
    except ValueError:  # beyond the interpreter's digit limit
        raise DomainError(f"primality is decided only below {PRIME_LIMIT}") from None
    if not _is_prime(p):
        raise ParseError(rule, original, f"{p} is not prime")
    return p


# ---------------------------------------------------------------------
# p-adic rationals


class _OverBase:
    """A base field ``self.base`` with a valuation added: its element
    arithmetic and polynomial kernels are the base's own, bound from the
    base at construction."""

    _BASE_MEMBERS = (
        "char", "zero", "one", "from_int", "add", "sub", "mul", "neg", "inv", "div",
        "is_zero", "format_element", "taylor_shift_coeffs", "mul_coeffs",
    )

    def __post_init__(self):
        for name in self._BASE_MEMBERS:
            object.__setattr__(self, name, getattr(self.base, name))

    def lowest_terms(self, coeffs, a):
        """The valuation exponent of each coefficient of ``g = f(T + a)``
        (``None`` where it is zero), and ``lowest(i)``: here ``g_i``
        itself, as the dense rows are lowered whole."""
        g = self.base.taylor_shift_coeffs(coeffs, a, len(coeffs))
        is_zero, valuation = self.base.is_zero, self.valuation
        return [None if is_zero(c) else valuation(c).exponent for c in g], g.__getitem__


@record
class PAdicField(_OverBase):
    """Q with the p-adic valuation; ``|p| = rho`` in log scale.  The
    arithmetic is that of the base field ``QQ``."""

    p: int
    base = QQ

    def __post_init__(self):
        if not _is_prime(self.p):
            raise DomainError(f"{self.p} is not prime")
        super().__post_init__()

    @property
    def selector(self) -> str:
        return f"padic:{self.p}"

    @property
    def residue_char(self) -> int:
        return self.p

    @property
    def residue_field(self) -> PrimeField:
        return PrimeField(self.p)

    @property
    def value_group_gen(self) -> Exponent:
        return Exponent(1)

    def valuation(self, x) -> Magnitude:
        """``rho**(v_p(num) - v_p(den))``, or zero for ``x == 0``."""
        if x == 0:
            return MAG_ZERO
        return int_magnitude(_vp(x, self.p))

    def trim_center(self, a, r: Magnitude):
        """A center of ``E(a, r)``: zero when ``|a| <= r``, else ``a``.

        Exact because ``|a - 0| <= r`` makes ``E(a, r) = E(0, r)``.
        """
        if a == 0 or r.is_zero:
            return a
        return a if Exponent(_vp(a, self.p)) < r.exponent else self.zero

    def residue(self, x) -> int:
        """Image in F_p of an element with ``|x| <= 1``."""
        x = Fraction(x)
        if x == 0:
            return 0
        val = self.valuation(x)
        if val > Magnitude.unit():
            raise DomainError("not integral: magnitude exceeds one")
        if val < Magnitude.unit():
            return 0
        return (x.numerator * pow(x.denominator, -1, self.p)) % self.p

    def residue_of_quotient(self, x, m) -> int:
        """Residue of ``x / m`` for ``|x| <= |m|``, ``m != 0``."""
        return self.residue(self.div(x, m))

    def element_with_valuation(self, e: Exponent) -> Optional[Fraction]:
        """``p**e`` for an integer ``e``; past :data:`MAX_EXACT_BITS`
        it is refused with :class:`DomainError`."""
        if not e.is_rational() or e.a.denominator != 1:
            return None
        k = int(e.a)
        check_bits(abs(k) * self.p.bit_length(), f"the power {self.p}^{k}")
        return Fraction(self.p) ** k

    def parse_element(self, text: str) -> Fraction:
        return read_literal(text, "p-adic element", text)


# ---------------------------------------------------------------------
# Finite-support Puiseux sums

PuiseuxElem = Tuple[Tuple[Fraction, object], ...]

# A term with a power of t: ``t``, ``-t`` or ``<coefficient>*t``, then
# optionally ``^(<exponent>)``.
_PUISEUX_TERM = re.compile(r"(?:(?P<coef>.+)\*|(?P<sign>-?))t(?:\^\((?P<g>[^()]*)\))?")


@record
class PuiseuxField:
    """Finite sums ``c_1*t^(g_1) + ...`` with rational exponents.

    The support of each element is sorted by exponent and carries no
    zero coefficients, so equality of tuples is equality of elements.
    The valuation reads off the smallest exponent.  Only monomials have
    finite-support inverses; ``inv`` refuses everything else rather than
    truncate a series.
    """

    base: BaseField

    @property
    def selector(self) -> str:
        return f"puiseux:{self.base.name}"

    @property
    def char(self) -> int:
        return self.base.char

    @property
    def residue_char(self) -> int:
        return self.base.char

    @property
    def residue_field(self) -> BaseField:
        return self.base

    @property
    def value_group_gen(self) -> Exponent:
        return Exponent(1)

    @property
    def zero(self) -> PuiseuxElem:
        return ()

    @property
    def one(self) -> PuiseuxElem:
        return ((Fraction(0), self.base.one),)

    @property
    def t(self) -> PuiseuxElem:
        return ((Fraction(1), self.base.one),)

    def monomial(self, g, c=None) -> PuiseuxElem:
        c = self.base.one if c is None else c
        if self.base.is_zero(c):
            return ()
        return ((Fraction(g), c),)

    def from_int(self, n: int) -> PuiseuxElem:
        c = self.base.from_int(n)
        if self.base.is_zero(c):
            return ()
        return ((Fraction(0), c),)

    def _normalize(self, terms) -> PuiseuxElem:
        out = [(g, c) for g, c in sorted(terms.items()) if not self.base.is_zero(c)]
        return tuple(out)

    def add(self, x: PuiseuxElem, y: PuiseuxElem) -> PuiseuxElem:
        acc = dict(x)
        if len(acc) < len(x):  # an exponent repeats in x: fold x in too
            acc, y = {}, (*x, *y)
        for g, c in y:
            acc[g] = self.base.add(acc.get(g, self.base.zero), c)
        return self._normalize(acc)

    def neg(self, x: PuiseuxElem) -> PuiseuxElem:
        return tuple([(g, self.base.neg(c)) for g, c in x])

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def mul(self, x: PuiseuxElem, y: PuiseuxElem) -> PuiseuxElem:
        acc: dict = {}
        for g1, c1 in x:
            for g2, c2 in y:
                g = g1 + g2
                prod = self.base.mul(c1, c2)
                acc[g] = self.base.add(acc.get(g, self.base.zero), prod)
        return self._normalize(acc)

    def taylor_shift_coeffs(self, coeffs, a, count) -> list:
        """The first ``count`` coefficients of ``f(T + a)`` on integer
        exponent keys.

        Every exponent of the coefficients and of ``a`` is scaled by
        their common denominator ``d`` to an int (:meth:`_sweep`), and
        the base field's ``shift_keyed`` runs the sweep on ints: over Q
        with the denominators cleared, over F_p reduced mod ``p``.
        :func:`_from_int_keys` then turns the keys back into ``Fraction``
        and lowers the values, in one pass; the result is that of the
        generic sweep through ``add`` and ``mul``.  A constant, or a
        shift by zero, comes back as it is, and ``count = 0`` as ``[]``.
        """
        if not a or len(coeffs) < 2 or not count:
            return list(coeffs[:count])
        d, *keyed = self._sweep(coeffs, a, count)
        return _from_int_keys(self.base, d, *self.base.shift_keyed(*keyed, count))

    def _sweep(self, coeffs, a, count):
        """The input of the base's keyed sweeps of ``count`` rows of
        ``f(T + a)``, for ``f`` as elements or as :class:`KeyedRows`:
        ``(d, shift, D, rows, L)``, with every key over ``d``, the terms
        of ``D*a`` as ``(key, value)`` pairs and the rows of ``f`` at the
        scale ``L``.  Held keyed rows are handed over as copies (the dict
        sweep updates its rows in place), their keys scaled by ``d / d_f``
        for the exponent denominators of ``a``.

        The sweep is refused up front when :func:`_term_work` is past
        ``MAX_TERM_WORK`` and, over Q, when :func:`_check_q_size` bounds
        its numbers past ``MAX_EXACT_BITS`` (``A`` the sum of the
        numerators of ``D*a``)."""
        base = self.base
        if coeffs.__class__ is KeyedRows:
            d_f, rows, L = coeffs
            d, ([shift], D) = _keyed(base, (a,), d=d_f)
            e = d // d_f
            rows = [{g * e: c for g, c in row.items()} for row in rows]
        else:
            d, ([shift], D), (rows, L) = _keyed(base, (a,), coeffs)
        shift = list(shift.items())
        _check_work(_term_work(shift, rows, count), "a sweep")
        if not base.char:
            lf_bits = max([c.bit_length() for row in rows for c in row.values()], default=0)
            _check_q_size(lf_bits, len(rows), sum([abs(c) for _, c in shift]), D, count)
        return d, shift, D, rows, L

    def lowest_terms(self, coeffs, a):
        """The valuation exponent of each coefficient of ``g = f(T + a)``
        (``None`` where it is zero), and ``lowest(i)``, the lowest term of
        ``g_i`` as a monomial: it has the valuation and the leading
        coefficient of ``g_i``.  ``coeffs`` are elements or a
        :class:`KeyedRows`, which is read as it is and never lowered.

        The sweep is that of :meth:`taylor_shift_coeffs`, set up by
        :meth:`_sweep` on the same int keys, read by the base field's
        ``lowest_keyed``, which gives each row's least key and its int
        value (over Q from packed rows, over F_p from the dict rows): a
        row's valuation is that key over ``d``, and only the rows that
        ``lowest`` is asked for lower their value.  Unshifted
        coefficients (a shift by zero, or of a constant) are read as they
        are: keyed rows by each row's least key, elements by their first
        term, so they must be canonical, as the class defines elements: a
        repeated exponent that cancels would be misread as the lowest
        term.
        """
        base = self.base
        if coeffs.__class__ is KeyedRows:
            d, rows, L = coeffs
            if not a or len(rows) < 2:
                keys = [min(row) if row else None for row in rows]

                def lowest(i):
                    g = keys[i]
                    return ((Fraction(g, d), base._lower(rows[i][g], L)),)

                return [None if g is None else _make(g, 0, d) for g in keys], lowest
        elif not a or len(coeffs) < 2:
            vals = [_make(x[0][0].numerator, 0, x[0][0].denominator) if x else None for x in coeffs]
            return vals, lambda i: coeffs[i][:1]
        else:
            rows = coeffs
        d, shift, D, rows, L = self._sweep(coeffs, a, len(rows))
        lows, scale, D = base.lowest_keyed(shift, D, rows, L)

        def lowest(i):
            g, c = lows[i]
            return ((Fraction(g, d), base._lower(c, scale // D**i)),)

        return [_make(low[0], 0, d) if low else None for low in lows], lowest

    def keyed_product(self, *factors) -> KeyedRows:
        """The schoolbook product of one or more factors as
        :class:`KeyedRows`: their exponents on int keys over one
        denominator (:func:`_keyed`), multiplied by the base field's
        ``mul_keyed``.  A :func:`_product_work` past ``MAX_TERM_WORK`` is
        refused up front."""
        d, *keyed = _keyed(self.base, *factors)
        _check_work(_product_work([rows for rows, _ in keyed]), "a product")
        rows, scale = self.base.mul_keyed(*keyed)
        while rows and not rows[-1]:
            rows.pop()
        return KeyedRows((d, rows, scale))

    def lower_keyed(self, keyed: KeyedRows) -> list:
        """The elements of :class:`KeyedRows`, by :func:`_from_int_keys`."""
        return _from_int_keys(self.base, *keyed)

    def mul_coeffs(self, *factors) -> list:
        """:meth:`keyed_product`, lowered: the terms are those through
        ``add`` and ``mul``."""
        return self.lower_keyed(self.keyed_product(*factors))

    def trim_center(self, a: PuiseuxElem, r: Magnitude) -> PuiseuxElem:
        """The canonical center of ``E(a, r)``: the terms of ``a`` with
        exponent below ``e_r``, where ``r = rho**e_r``.

        Exact because every dropped term has magnitude at most ``r``, so
        their sum does too and ``E(a, r) = E(a', r)``.  Two centers of
        one disc differ only in such terms, so they trim to the same
        prefix.
        """
        if r.is_zero:
            return a
        e = r.exponent
        n = 0
        while n < len(a) and Exponent(a[n][0]) < e:
            n += 1
        return a[:n]

    def inv(self, x: PuiseuxElem) -> PuiseuxElem:
        if not x:
            raise DomainError("division by zero")
        if len(x) != 1:
            raise DomainError(
                "only monomials are invertible in finite support; "
                "general inverses would be infinite series"
            )
        g, c = x[0]
        return ((-g, self.base.inv(c)),)

    def div(self, x, y):
        return self.mul(x, self.inv(y))

    def is_zero(self, x) -> bool:
        return not x

    def valuation(self, x: PuiseuxElem) -> Magnitude:
        """``rho`` to the first exponent of ``x``, which must be canonical."""
        if not x:
            return Magnitude.zero()
        return Magnitude.finite(Exponent(x[0][0]))

    def residue(self, x: PuiseuxElem):
        if not x:
            return self.base.zero
        if x[0][0] < 0:
            raise DomainError("not integral: magnitude exceeds one")
        if x[0][0] > 0:
            return self.base.zero
        return x[0][1]

    def residue_of_quotient(self, x: PuiseuxElem, m: PuiseuxElem):
        """Residue of ``x/m`` for ``|x| <= |m|``, without forming ``x/m``.

        Only the leading terms can contribute: when the valuations tie
        the quotient is a unit whose residue is the ratio of leading
        coefficients, and otherwise the quotient sits inside the maximal
        ideal.
        """
        if not m:
            raise DomainError("division by zero")
        if not x:
            return self.base.zero
        vx, vm = x[0][0], m[0][0]
        if vx < vm:
            raise DomainError("not integral: magnitude exceeds one")
        if vx > vm:
            return self.base.zero
        return self.base.div(x[0][1], m[0][1])

    def element_with_valuation(self, e: Exponent) -> Optional[PuiseuxElem]:
        if not e.is_rational():
            return None
        return self.monomial(e.a)

    # -- text form ------------------------------------------------------

    def format_element(self, x: PuiseuxElem) -> str:
        if not x:
            return "0"
        parts = []
        for g, c in x:
            ctext = self.base.format_element(c)
            if g == 0:
                parts.append(ctext)
                continue
            tpow = "t" if g == 1 else f"t^({g})"
            if ctext == "1":
                parts.append(tpow)
            elif ctext == "-1":
                parts.append(f"-{tpow}")
            else:
                parts.append(f"{ctext}*{tpow}")
        out = parts[0]
        for part in parts[1:]:
            if part.startswith("-"):
                out += "-" + part[1:]
            else:
                out += "+" + part
        return out

    def parse_element(self, text: str) -> PuiseuxElem:
        acc: dict = {}
        for term in split_top("".join(text.split()), "+-", "puiseux element", text):
            g, c = self._parse_term(term, text)
            c = self.base.add(acc.get(g, self.base.zero), c)
            acc[g] = c
        return self._normalize(acc)

    def _parse_term(self, term: str, original: str):
        m = _PUISEUX_TERM.fullmatch(term)
        if m is None:
            try:
                return Fraction(0), self.base.parse_element(term)
            except ParseError:
                raise ParseError("puiseux element", original, f"bad term {term!r}") from None
        g = m.group("g")
        g = Fraction(1) if g is None else read_literal(g, "puiseux element", original)
        if m.group("coef") is not None:
            return g, self.base.parse_element(m.group("coef"))
        return g, self.base.neg(self.base.one) if m.group("sign") else self.base.one


# ---------------------------------------------------------------------
# Trivially valued base field


@record
class TrivialField(_OverBase):
    """A base field carrying the trivial valuation."""

    base: BaseField

    @property
    def selector(self) -> str:
        return f"trivial:{self.base.name}"

    @property
    def residue_char(self) -> int:
        return self.base.char

    @property
    def residue_field(self) -> BaseField:
        return self.base

    @property
    def value_group_gen(self) -> Exponent:
        return EXP_ZERO

    def valuation(self, x) -> Magnitude:
        if self.base.is_zero(x):
            return Magnitude.zero()
        return Magnitude.unit()

    def residue(self, x):
        return x

    def trim_center(self, a, r: Magnitude):
        """Zero when ``|a| <= r`` (then ``E(a, r) = E(0, r)``), else ``a``."""
        return self.zero if self.valuation(a) <= r else a

    def residue_of_quotient(self, x, m):
        if self.base.is_zero(m):
            raise DomainError("division by zero")
        return self.base.div(x, m)

    def element_with_valuation(self, e: Exponent):
        if e.sign() == 0 and e.is_rational():
            return self.base.one
        return None

    def parse_element(self, text: str):
        try:
            return self.base.parse_element(text)
        except ParseError:
            raise ParseError("trivially valued element", text) from None


ValuedField = Union[PAdicField, PuiseuxField, TrivialField]


def parse_field(selector: str) -> ValuedField:
    """Resolve a field selector: padic:<p>, puiseux:<B>, trivial:<B>."""
    s = selector.strip()
    m = re.match(r"^(padic|puiseux|trivial):(.+)$", s)
    if not m:
        raise ParseError("field selector", selector)
    kind, arg = m.group(1), m.group(2)
    if kind == "padic":
        if not re.match(r"^\d+$", arg):
            raise ParseError("field selector", selector, "prime expected")
        return PAdicField(_parse_prime(arg, "field selector", selector))
    base = parse_base_field(arg)
    return PuiseuxField(base) if kind == "puiseux" else TrivialField(base)


def ultrametric_check(field: ValuedField, x, y) -> bool:
    """Strong triangle inequality, with forced equality off the diagonal."""
    vx, vy = field.valuation(x), field.valuation(y)
    vsum = field.valuation(field.add(x, y))
    bound = vx if vx >= vy else vy
    if vsum > bound:
        return False
    if vx != vy and vsum != bound:
        return False
    return True
