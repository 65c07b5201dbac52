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

One object per value: every Gaussian rational the module computes (each
operator, negation, conjugation, `times_i`, `GaussianSums.finish` and
`gaussian_from_strs`) comes from a table keyed by the triple the
constructor is given.  A miss in `_reduced` takes the gcd once and then
both the given and the canonical triple map to the canonical object, so a
repeated value costs one dict lookup, and equal coefficients are the same
object while the table holds them; dict and tensor comparisons then stop at
the identity test.  The table holds at most `_TABLE_LIMIT` entries and is
cleared when full, and only triples whose three ints lie below
`_ENTRY_BOUND` in absolute value are entered, so its memory is bounded
whatever the coefficient heights; a larger value is built as it is.
`gaussian_from_strs` keeps a second such table from (re, im) literal pairs
of at most `_LITERAL_LIMIT` characters together to their value, and a
refused literal enters nothing.  `GaussianRational(re, im)` builds a fresh
object, and equality stays value-based, because values past the bound
are not shared.  Sharing rests on immutability: no code outside this
module stores to a Gaussian rational's `p`, `q` or `d`.

`exact` is the package's one gate for exact numbers: an int, a `Fraction`
or a `GaussianRational` passes, and anything else, floats and bools
included, is a `ConfigurationError` naming the entry.  `exact_real` is the
gate of a door that reads a real number: it refuses a `GaussianRational`
too, whatever its imaginary part, in the same way.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

from .errors import ConfigurationError

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


def _ratio_to_str(n, d):
    """`rational_to_str(Fraction(n, d))` for ints n and d > 0."""
    g = gcd(n, d)
    return str(n // g) if d == g else f"{n // g}/{d // g}"


_new = object.__new__

_TABLE_LIMIT = 4096
_ENTRY_BOUND = 1 << 63
_LITERAL_LIMIT = 64

# triple -> the canonical GaussianRational of its value; see the docstring.
# It is cleared in place, never rebound, so its bound `get` stays valid.
_values = {}
_lookup = _values.get
# (re, im) literal pair -> its GaussianRational
_literals = {}


def _enter(key, z):
    """values[key] = z when the triple key is within the entry bound; a full
    table is cleared first."""
    p, q, d = key
    if -_ENTRY_BOUND < p < _ENTRY_BOUND and -_ENTRY_BOUND < q < _ENTRY_BOUND and d < _ENTRY_BOUND:
        if len(_values) >= _TABLE_LIMIT:
            _values.clear()
        _values[key] = z


def _make(p, q, d):
    """The GaussianRational of a triple that is already canonical: the
    table's object for it, or a new one, entered within the bound."""
    key = (p, q, d)
    z = _lookup(key)
    if z is None:
        z = _new(GaussianRational)
        z.p = p
        z.q = q
        z.d = d
        _enter(key, z)
    return z


def _reduced(p, q, d):
    """The GaussianRational of any triple with d > 0; a miss takes the gcd
    once and enters both the triple and its canonical form."""
    key = (p, q, d)
    z = _lookup(key)
    if z is None:
        g = gcd(p, q, d)
        if g == 1:
            return _make(p, q, d)
        z = _make(p // g, q // g, d // g)
        _enter(key, z)
    return z


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
    triple (a e, c b, b e), reduced by one three-argument gcd.  A pair of
    at most `_LITERAL_LIMIT` characters is parsed once while the literal
    table holds it."""
    key = (re_str, im_str)
    z = _literals.get(key)
    if z is None:
        a, b = _split_literal(re_str)
        c, e = _split_literal(im_str)
        z = _reduced(a * e, c * b, b * e)
        if len(re_str) + len(im_str) <= _LITERAL_LIMIT:
            if len(_literals) >= _TABLE_LIMIT:
                _literals.clear()
            _literals[key] = z
    return z


def exact(x, what, at=None):
    """x itself if it is an exact number: an int, a `Fraction` or a
    `GaussianRational`.  Anything else, floats and bools included, is a
    `ConfigurationError` naming the entry: `what`, followed by `at` when
    given, which is formatted only then."""
    if type(x) in _EXACT_TYPES or isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return x
    name = what if at is None else f"{what} {at}"
    raise ConfigurationError(f"{name} is a {type(x).__name__}, not a rational")


def exact_real(x, what, at=None):
    """x itself if `exact` passes it and it is not a `GaussianRational`; a
    Gaussian rational is a `ConfigurationError` naming the entry."""
    if type(x) is GaussianRational:
        name = what if at is None else f"{what} {at}"
        raise ConfigurationError(f"{name} is a GaussianRational, not a real rational")
    return exact(x, what, at)


class GaussianRational:
    """A complex number (p + i q) / d with exact rational real and imaginary
    parts; see the module docstring for the invariant."""

    __slots__ = ("p", "q", "d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self.p, self.q, self.d = re, im, 1
            return
        re, im = Fraction(exact_real(re, "real part")), Fraction(exact_real(im, "imaginary part"))
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
        """The `rational_to_str` texts of re and im, built without Fractions."""
        return {"re": _ratio_to_str(self.p, self.d), "im": _ratio_to_str(self.q, self.d)}

    @classmethod
    def from_json(cls, obj):
        return gaussian_from_strs(obj["re"], obj["im"])


GR_ONE = GaussianRational(1, 0)

_EXACT_TYPES = frozenset((int, Fraction, GaussianRational))
