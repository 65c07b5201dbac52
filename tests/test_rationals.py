import inspect
import json
import operator
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from sympconn.fourier import FourierScalar
from sympconn.rationals import (
    GaussianRational,
    gaussian_from_strs,
    rational_from_str,
    rational_to_str,
)

rationals = st.fractions(max_denominator=50)
gaussians = st.builds(GaussianRational, rationals, rationals)


@given(rationals)
def test_rational_string_round_trip(q):
    assert rational_from_str(rational_to_str(q)) == q


def test_rational_from_str_rejects_junk():
    for bad in ("", "1/0", "a/b", "1.5", "1/2/3"):
        with pytest.raises(ValueError):
            rational_from_str(bad)


@given(st.integers(-60, 60), st.integers(1, 60), st.integers(-60, 60), st.integers(1, 60))
def test_gaussian_from_strs_builds_the_canonical_triple(a, b, c, e):
    """Unreduced literals, signs and surrounding space give the value the
    two Fractions give, as a canonical triple."""
    z = gaussian_from_strs(f" {a}/{b}", f"{'+' if c >= 0 else ''}{c}/{e} ")
    assert z == GaussianRational(Fraction(a, b), Fraction(c, e))
    assert z.d > 0 and gcd(z.p, z.q, z.d) == 1
    assert gaussian_from_strs(str(a), str(c)) == GaussianRational(a, c)


def test_gaussian_from_strs_refuses_as_rational_from_str():
    for bad in ("", "1/0", "a/b", "1.5", "1/2/3"):
        with pytest.raises(ValueError) as want:
            rational_from_str(bad)
        for args in ((bad, "0"), ("0", bad)):
            with pytest.raises(ValueError) as got:
                gaussian_from_strs(*args)
            assert str(got.value) == str(want.value)


@given(gaussians, gaussians, gaussians)
def test_gaussian_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == GaussianRational(0)


@given(gaussians, gaussians)
def test_gaussian_conjugation_is_multiplicative(a, b):
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()


@given(gaussians)
def test_gaussian_division_inverts_multiplication(a):
    if not a.is_zero():
        assert (a * a) / a == a


def test_times_i():
    z = GaussianRational(Fraction(2), Fraction(3))
    assert z.times_i() == GaussianRational(Fraction(-3), Fraction(2))
    assert z.times_i().times_i() == -z


@given(gaussians)
def test_gaussian_json_round_trip(a):
    assert GaussianRational.from_json(a.to_json()) == a


# -- the fraction-free triple (p + i q) / d ----------------------------------------


def assert_canonical(z):
    assert type(z) is GaussianRational
    assert all(type(x) is int for x in (z.p, z.q, z.d))
    assert z.d > 0
    assert gcd(z.p, z.q, z.d) == 1  # zero is therefore (0, 0, 1)


@st.composite
def operands(draw):
    """A Gaussian rational, an int or a Fraction, with its (re, im) pair."""
    kind = draw(st.sampled_from(("gr", "int", "fraction")))
    if kind == "gr":
        re, im = draw(rationals), draw(rationals)
        return GaussianRational(re, im), (re, im)
    if kind == "int":
        k = draw(st.integers(-60, 60))
        return k, (Fraction(k), Fraction(0))
    q = draw(rationals)
    return q, (q, Fraction(0))


def ref_add(x, y):
    return x[0] + y[0], x[1] + y[1]


def ref_sub(x, y):
    return x[0] - y[0], x[1] - y[1]


def ref_mul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def ref_div(x, y):
    n = y[0] * y[0] + y[1] * y[1]
    return (x[0] * y[0] + x[1] * y[1]) / n, (x[1] * y[0] - x[0] * y[1]) / n


BINARY = (
    (operator.add, ref_add),
    (operator.sub, ref_sub),
    (operator.mul, ref_mul),
    (operator.truediv, ref_div),
)


@given(operands(), operands())
def test_arithmetic_matches_fraction_pairs(x, y):
    """+ - * / against pairs of Fractions, with GR x GR, GR x int,
    GR x Fraction, int x GR and Fraction x GR operands."""
    (a, ra), (b, rb) = x, y
    assume(isinstance(a, GaussianRational) or isinstance(b, GaussianRational))
    for op, ref in BINARY:
        if op is operator.truediv and rb == (0, 0):
            continue
        z = op(a, b)
        assert_canonical(z)
        assert (z.re, z.im) == ref(ra, rb)
        assert z == GaussianRational(*ref(ra, rb))


@given(rationals, rationals)
def test_unary_operations_match_fraction_pairs(re, im):
    z = GaussianRational(re, im)
    assert_canonical(z)
    for got, want in ((-z, (-re, -im)), (z.conjugate(), (re, -im)), (z.times_i(), (-im, re))):
        assert_canonical(got)
        assert (got.re, got.im) == want


@given(st.integers(-10**30, 10**30), st.integers(-10**30, 10**30), st.integers(1, 10**30))
def test_large_parts_are_reduced(p, q, d):
    z = GaussianRational(Fraction(p, d), Fraction(q, d))
    assert_canonical(z)
    assert_canonical(z * z - z / GaussianRational(1, 3))


def test_zero_is_stored_as_0_0_1():
    half = GaussianRational(Fraction(1, 2), Fraction(-1, 3))
    for z in (GaussianRational(0), GaussianRational(Fraction(0), Fraction(0)), half - half,
              half * 0, half * Fraction(0), 0 * half):
        assert (z.p, z.q, z.d) == (0, 0, 1)
        assert z.is_zero() and not z


@given(rationals, rationals)
def test_to_json_matches_the_fraction_form(re, im):
    z = GaussianRational(re, im)
    old = {"re": str(re), "im": str(im)}
    assert json.dumps(z.to_json()) == json.dumps(old)


@given(st.integers(-10**30, 10**30), st.integers(-10**30, 10**30), st.integers(1, 10**30),
       st.integers(1, 10**6))
def test_to_json_is_rational_to_str_of_the_parts(p, q, d, common):
    """Large parts, and a real part over a smaller denominator than the
    imaginary one, so that p shares a factor with the triple's d."""
    for z in (GaussianRational(Fraction(p, d), Fraction(q, d)),
              GaussianRational(Fraction(p, d), Fraction(q, d * common))):
        assert z.to_json() == {"re": rational_to_str(z.re), "im": rational_to_str(z.im)}


def test_to_json_literals():
    assert GaussianRational(Fraction(-3, 4), Fraction(1, 6)).to_json() == {"re": "-3/4", "im": "1/6"}
    assert GaussianRational(Fraction(10, 4), -2).to_json() == {"re": "5/2", "im": "-2"}
    assert GaussianRational(0).to_json() == {"re": "0", "im": "0"}


@given(gaussians, gaussians)
def test_equality_agrees_with_hash(a, b):
    assert hash(a) == hash((a.re, a.im))
    if not b.is_zero():
        c = (a * b) / b
        assert c == a and hash(c) == hash(a)
    if a == b:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("zero", [GaussianRational(0), 0, Fraction(0)])
def test_division_by_zero_raises(zero):
    with pytest.raises(ZeroDivisionError):
        GaussianRational(Fraction(1, 2), 3) / zero
    with pytest.raises(ZeroDivisionError):
        7 / GaussianRational(0)


def test_parts_are_read_only_fractions():
    z = GaussianRational(Fraction(-3, 4), Fraction(5, 6))
    assert (z.p, z.q, z.d) == (-9, 10, 12)
    assert isinstance(z.re, Fraction) and (z.re.numerator, z.re.denominator) == (-3, 4)
    assert isinstance(z.im, Fraction) and (z.im.numerator, z.im.denominator) == (5, 6)
    with pytest.raises(AttributeError):
        z.re = Fraction(1)


def test_add_and_mul_are_patchable_on_the_class(monkeypatch):
    """The benchmark's tracer counts Gaussian-rational ops by replacing
    GaussianRational.__dict__["__add__"] and ["__mul__"] with counting
    wrappers, and reads .re/.im numerators and denominators: both must be
    plain functions defined on the class, through which the kernels' + and
    * go."""
    counts = Counter()
    for name in ("__add__", "__mul__"):
        original = GaussianRational.__dict__[name]
        assert inspect.isfunction(original) and original.__name__ == name

        def wrapper(*args, original=original, name=name):
            counts[name] += 1
            return original(*args)

        monkeypatch.setattr(GaussianRational, name, wrapper)
    f = FourierScalar.cosine(4, (1, 0, 0, 0), Fraction(2, 3))
    g = f * f + f.scale(Fraction(1, 5))
    assert counts["__mul__"] >= 4 and counts["__add__"] >= 1
    monkeypatch.undo()
    assert g == f * f + f.scale(Fraction(1, 5))
    for c in g.coeffs.values():
        for part in (c.re, c.im):
            assert isinstance(part.numerator, int) and part.denominator > 0
