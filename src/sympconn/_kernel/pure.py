"""Pure-Python kernels for sparse maps.

A sparse map is a dict from keys to nonzero values.  The sums, negation,
scaling and products below serve any values with `+`, `-`, `*` and a truth
value that is false exactly at zero: `Fraction` and `GaussianRational`
coefficients, `series.SparseScalar` functions as tensor components and
Christoffel symbols.  For products the keys are int tuples that add, as
Fourier modes and polynomial exponents do.  `dict_derivative` and
`dict_shift` are the Fourier-mode operations of `fourier.FourierScalar`.
These loops dominate the runtime of every tensor operation.

`GaussianSums` is the package's one exact accumulator, for both coefficient
types: every sum of many signed terms per key (coefficient maps, their
products and their derivatives) is kept as unreduced Gaussian-integer
triples.  It reads a `GaussianRational`'s fields (p, q, d), the value
(p + i q) / d, and a `Fraction` as (numerator, 0, denominator), after one
type test per map, so no value is converted and no gcd is taken per term;
each sum is reduced once, to the coefficient type of its scalar, so a
`Poly` gets `Fraction`s, and a Gaussian sum is reduced by
`rationals._reduced`, the one place Gaussian rationals are reduced, which
hands out one object per value.  Its one product loop,
`add_times_terms`, multiplies a coefficient map by a term list: the other
factor's coefficients for `add_product`, or a scalar's `derivative_terms`
for X(f), so no derivative is built as a scalar.
"""

from math import gcd

from ..rationals import Fraction, _reduced


class _Adders(dict):
    """length n -> the function (a, b) -> a + b key-wise for int tuples of
    length n, with each slot written out: (a[0] + b[0], a[1] + b[1], ...).
    That is about four times as fast as tuple(map(add, a, b)).  Each
    function is built once, on the first read of its length."""

    def __missing__(self, n):
        slots = "".join(f"a[{i}] + b[{i}], " for i in range(n))
        adder = self[n] = eval(f"lambda a, b: ({slots})")
        return adder


_ADDERS = _Adders()


def dict_add(a, b):
    """Key-wise sum; zero results are dropped."""
    out = dict(a)
    for m, c in b.items():
        cur = out.get(m)
        if cur is None:
            out[m] = c
        else:
            s = cur + c
            if s:
                out[m] = s
            else:
                del out[m]
    return out


def dict_sub(a, b):
    """Key-wise difference, keys in the order of dict_add(a, dict_neg(b))."""
    out = dict(a)
    for m, c in b.items():
        cur = out.get(m)
        if cur is None:
            out[m] = -c
        else:
            s = cur - c
            if s:
                out[m] = s
            else:
                del out[m]
    return out


def dict_neg(a):
    return {m: -c for m, c in a.items()}


def dict_scale(a, c):
    """Every value times the factor c; a zero factor gives the empty map."""
    if not c:
        return {}
    return {m: v * c for m, v in a.items()}


def dict_convolve(a, b):
    """Product of sparse sums over int-tuple keys: keys add, values multiply."""
    if len(a) > len(b):
        a, b = b, a
    out = {}
    if not a:
        return out
    plus = _ADDERS[len(next(iter(b)))]
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = plus(m1, m2)
            p = c1 * c2
            cur = out.get(m)
            if cur is None:
                out[m] = p
            else:
                s = cur + p
                if s:
                    out[m] = s
                else:
                    del out[m]
    return out


def dict_derivative(a, axis):
    """Flat derivative along one angle: coefficient at m becomes i*m[axis]*c."""
    out = {}
    for m, c in a.items():
        k = m[axis]
        if k:
            out[m] = c.times_i() * k
    return out


def dict_shift(a, delta):
    """Multiply by the single mode e^{i delta.x}: all modes translate by delta."""
    plus = _ADDERS[len(delta)]
    return {plus(m, delta): c for m, c in a.items()}


class GaussianSums:
    """Exact sums of coefficient maps, one sum per key.

    Each key holds {mode: [p, q, d]}, the value (p + i q) / d with d > 0 and
    no gcd taken.  A term with another denominator merges over the lcm of
    the two, so the stored d is the lcm of the term denominators and stays
    small.  Each adder takes an int `sign` (a factor such as -1 or 2) and,
    but for `add_derivative`, a rational `weight` that scales the numerators
    and denominators of the term.  A coefficient map's values are read as
    they are, after one type test per map (`_is_real`): a `Fraction` as
    (numerator, 0, denominator), a `GaussianRational` as its fields.
    `finish` reduces each sum once, to its scalar type's coefficient type;
    `all_zero` is true exactly when every sum vanishes.
    """

    __slots__ = ("sums",)

    def __init__(self):
        self.sums = {}

    def _target(self, key):
        t = self.sums.get(key)
        if t is None:
            t = self.sums[key] = {}
        return t

    def add(self, key, a, sign=1, weight=1):
        """sums[key] += sign * weight * a, for a rational (int or Fraction)
        weight."""
        t = self._target(key)
        n, w = sign * weight.numerator, weight.denominator
        if _is_real(a):
            for m, c in a.items():
                _merge(t, m, c.numerator * n, 0, c.denominator * w)
        else:
            for m, c in a.items():
                _merge(t, m, c.p * n, c.q * n, c.d * w)

    def add_terms(self, key, terms, sign=1, weight=1):
        """sums[key] += sign * weight * g for a function g given as its
        unreduced terms (m, p, q, d), as `add_times_terms` takes them, and a
        rational weight."""
        t = self._target(key)
        n, w = sign * weight.numerator, weight.denominator
        for m, p, q, d in terms:
            _merge(t, m, p * n, q * n, d * w)

    def add_product(self, key, a, b, sign=1, weight=1):
        """sums[key] += sign * weight * a b, for a rational weight: keys add,
        coefficients multiply."""
        if len(a) > len(b):
            a, b = b, a
        if _is_real(b):
            terms = [(m, c.numerator, 0, c.denominator) for m, c in b.items()]
        else:
            terms = [(m, c.p, c.q, c.d) for m, c in b.items()]
        self.add_times_terms(key, a, terms, sign, weight)

    def add_times_terms(self, key, a, terms, sign=1, weight=1):
        """sums[key] += sign * weight * a g for a coefficient map a and a
        function g given as its unreduced terms (m, p, q, d), each the value
        (p + i q) / d at key m with d > 0 and no two keys alike, as
        `derivative_terms` of a scalar gives them: keys add, coefficients
        multiply."""
        t = self._target(key)
        if not terms:
            return
        n, w = sign * weight.numerator, weight.denominator
        plus = _ADDERS[len(terms[0][0])]
        real = _is_real(a)
        for m1, c in a.items():
            if real:
                p1, q1, d1 = n * c.numerator, 0, w * c.denominator
            else:
                p1, q1, d1 = n * c.p, n * c.q, w * c.d
            for m2, p2, q2, d2 in terms:
                m = plus(m1, m2)
                _merge(t, m, p1 * p2 - q1 * q2, p1 * q2 + q1 * p2, d1 * d2)

    def add_derivative(self, key, a, axis, sign=1):
        """sums[key] += sign * d a / d x^axis for a Fourier coefficient map:
        the coefficient at mode m times i m[axis]."""
        t = self._target(key)
        for m, c in a.items():
            k = m[axis]
            if k:
                k *= sign
                _merge(t, m, -c.q * k, c.p * k, c.d)

    def all_zero(self):
        return not any(p or q for t in self.sums.values() for p, q, _ in t.values())

    def finish(self, scalar, dim):
        """{key: scalar(dim, coefficients)} over the keys whose sum is not
        zero; each coefficient is reduced once, to `scalar.coeff_type`
        (a Gaussian one through `rationals._reduced`), and zero modes are
        dropped.  A `Fraction` sum has q = 0 throughout."""
        real = scalar.coeff_type is Fraction
        out = {}
        for key, t in self.sums.items():
            coeffs = {}
            for m, (p, q, d) in t.items():
                if p or q:
                    coeffs[m] = Fraction(p, d) if real else _reduced(p, q, d)
            if coeffs:
                out[key] = scalar(dim, coeffs, _validated=True)
        return out


def _is_real(a):
    """Whether a coefficient map holds `Fraction`s, told by its first value;
    its values are then read as (numerator, 0, denominator), and otherwise
    as the fields (p, q, d) of `GaussianRational`s."""
    for c in a.values():
        return type(c) is Fraction
    return False


def _merge(t, m, p, q, d):
    """t[m] += (p + i q) / d over the lcm of the denominators."""
    cur = t.get(m)
    if cur is None:
        t[m] = [p, q, d]
        return
    cd = cur[2]
    if cd == d:
        cur[0] += p
        cur[1] += q
    else:
        g = gcd(cd, d)
        u, v = d // g, cd // g
        cur[0] = cur[0] * u + p * v
        cur[1] = cur[1] * u + q * v
        cur[2] = cd * u
