"""Exact scalar arithmetic: rationals and Gaussian rationals.

Rationals are ``fractions.Fraction`` (arbitrary-precision, canonical
gcd-reduced form with positive denominator, exactly the invariants we need).
This module adds string (de)serialization helpers and the Gaussian rational
type used for Fourier coefficients, where the imaginary unit enters through
mode-wise differentiation.

A `GaussianRational` is stored fraction-free as three ints ``(p, q, d)``
meaning ``(p + i q) / d``, with ``d > 0`` and ``gcd(p, q, d) == 1``; zero
is ``(0, 0, 1)``.  This form is canonical, so equality is equality of the
triples.  Each ``+ - * /`` computes the unreduced triple with integer
arithmetic and normalizes it with one three-argument ``math.gcd`` (none
when the denominator is 1); negation, conjugation and multiplication by i
keep the invariant without one.  Integers and Fractions mix in directly,
without a temporary Gaussian rational.  ``re`` and ``im`` are read-only
Fractions, built on demand for serialization and the few real-valued
readers.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


def _split_literal(s: str):
    """Parse "p/q" or "p" into ints (p, q) with q > 0, not reduced; decimals
    are not rationals here."""
    s = s.strip()
    if not _RATIONAL_RE.match(s):
        raise ValueError(f"bad rational literal {s!r}")
    # the literal is checked: split it rather than parse it again as a string
    num, _, den = s.partition("/")
    num, den = int(num), int(den) if den else 1
    if not den:
        raise ValueError(f"bad rational literal {s!r}")
    return num, den


def rational_from_str(s: str) -> Fraction:
    """Parse "p/q" or "p" into a Fraction; decimals are not rationals here."""
    return Fraction(*_split_literal(s))


def rational_to_str(q: Fraction) -> str:
    """Serialize as "p/q", or "p" when the denominator is 1."""
    return str(q)


_new = object.__new__


def _make(p, q, d):
    """A GaussianRational from a triple that is already canonical."""
    z = _new(GaussianRational)
    z.p = p
    z.q = q
    z.d = d
    return z


def _reduced(p, q, d):
    """A GaussianRational from any triple with d > 0."""
    g = gcd(p, q, d)
    if g != 1:
        return _make(p // g, q // g, d // g)
    return _make(p, q, d)


def _lift(x):
    """An int or Fraction operand as a triple (p, 0, d); None for any other
    type, so the operator can return NotImplemented."""
    if isinstance(x, int):
        return x, 0, 1
    if isinstance(x, Fraction):
        return x.numerator, 0, x.denominator
    return None


def gaussian_from_strs(re_str: str, im_str: str):
    """Parse two rational literals (see `rational_from_str`) into the
    GaussianRational re + i im, without a Fraction: a/b + i c/e is the
    triple (a e, c b, b e), reduced by one three-argument gcd."""
    a, b = _split_literal(re_str)
    c, e = _split_literal(im_str)
    return _reduced(a * e, c * b, b * e)


class GaussianRational:
    """A complex number (p + i q) / d with exact rational real and imaginary
    parts; see the module docstring for the invariant."""

    __slots__ = ("p", "q", "d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self.p, self.q, self.d = re, im, 1
            return
        re, im = Fraction(re), Fraction(im)
        rd, idn = re.denominator, im.denominator
        if rd == idn:
            self.p, self.q, self.d = re.numerator, im.numerator, rd
            return
        # over the lcm of two reduced denominators, gcd(p, q, d) is 1
        d = rd // gcd(rd, idn) * idn
        self.p, self.q, self.d = re.numerator * (d // rd), im.numerator * (d // idn), d

    @property
    def re(self):
        return Fraction(self.p, self.d)

    @property
    def im(self):
        return Fraction(self.q, self.d)

    # -- algebra ---------------------------------------------------------

    def __add__(self, other):
        if type(other) is GaussianRational:
            op, oq, od = other.p, other.q, other.d
        else:
            t = _lift(other)
            if t is None:
                return NotImplemented
            op, oq, od = t
        d = self.d
        if d == od:
            p, q = self.p + op, self.q + oq
            if d == 1:
                return _make(p, q, 1)
        else:
            p, q, d = self.p * od + op * d, self.q * od + oq * d, d * od
        return _reduced(p, q, d)

    def __radd__(self, other):
        return self + other

    def __sub__(self, other):
        if type(other) is GaussianRational:
            op, oq, od = other.p, other.q, other.d
        else:
            t = _lift(other)
            if t is None:
                return NotImplemented
            op, oq, od = t
        d = self.d
        if d == od:
            p, q = self.p - op, self.q - oq
            if d == 1:
                return _make(p, q, 1)
        else:
            p, q, d = self.p * od - op * d, self.q * od - oq * d, d * od
        return _reduced(p, q, d)

    def __rsub__(self, other):
        return -self + other

    def __neg__(self):
        return _make(-self.p, -self.q, self.d)

    def __mul__(self, other):
        if type(other) is GaussianRational:
            a, b, c, e = self.p, self.q, other.p, other.q
            p, q, d = a * c - b * e, a * e + b * c, self.d * other.d
            if d == 1:
                return _make(p, q, 1)
            return _reduced(p, q, d)
        if type(other) is int:
            # gcd(p k, q k, d) = gcd(k, d), because gcd(p, q) is prime to d
            d = self.d
            g = gcd(other, d) if d != 1 else 1
            if g != 1:
                other //= g
                d //= g
            return _make(self.p * other, self.q * other, d)
        t = _lift(other)
        if t is None:
            return NotImplemented
        op, _, od = t
        return _reduced(self.p * op, self.q * op, self.d * od)

    def __rmul__(self, other):
        return self * other

    def __truediv__(self, other):
        if type(other) is GaussianRational:
            c, e = other.p, other.q
            n = c * c + e * e
            if not n:
                raise ZeroDivisionError("division by zero Gaussian rational")
            # (a + i b) / d * od / (c + i e) = (a + i b)(c - i e) od / (d n)
            a, b, od = self.p, self.q, other.d
            return _reduced((a * c + b * e) * od, (b * c - a * e) * od, self.d * n)
        t = _lift(other)
        if t is None:
            return NotImplemented
        op, _, od = t
        if not op:
            raise ZeroDivisionError("division of a Gaussian rational by zero")
        if op < 0:
            op, od = -op, -od
        return _reduced(self.p * od, self.q * od, self.d * op)

    def __rtruediv__(self, other):
        t = _lift(other)
        if t is None:
            return NotImplemented
        return _make(*t) / self

    def conjugate(self):
        return _make(self.p, -self.q, self.d)

    def times_i(self):
        """Multiplication by i."""
        return _make(-self.q, self.p, self.d)

    # -- predicates ------------------------------------------------------

    def is_zero(self):
        return not self.p and not self.q

    def is_real(self):
        return not self.q

    def __bool__(self):
        return bool(self.p or self.q)

    def __eq__(self, other):
        if type(other) is not GaussianRational:
            return NotImplemented
        return self.p == other.p and self.q == other.q and self.d == other.d

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    # -- serialization ---------------------------------------------------

    def to_json(self):
        return {"re": rational_to_str(self.re), "im": rational_to_str(self.im)}

    @classmethod
    def from_json(cls, obj):
        return gaussian_from_strs(obj["re"], obj["im"])


GR_ONE = GaussianRational(1, 0)
