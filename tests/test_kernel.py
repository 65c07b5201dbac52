"""The sparse mode-dictionary kernels."""

import random
from fractions import Fraction

from sympconn._kernel import pure
from sympconn.rationals import GaussianRational


def random_dict(rng, entries=6, dim=4):
    out = {}
    for _ in range(entries):
        m = tuple(rng.randint(-2, 2) for _ in range(dim))
        out[m] = GaussianRational(
            Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
            Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
        )
    return {m: c for m, c in out.items() if not c.is_zero()}


def test_pure_convolution_is_commutative_and_sparse():
    rng = random.Random(1)
    a, b = random_dict(rng), random_dict(rng)
    ab = pure.dict_convolve(a, b)
    assert ab == pure.dict_convolve(b, a)
    assert all(not c.is_zero() for c in ab.values())


def test_dict_sub_matches_adding_the_negation_key_for_key():
    """dict_sub(a, b) equals dict_add(a, dict_neg(b)), with the same key
    order, including keys that cancel exactly."""
    rng = random.Random(2)
    for _ in range(20):
        a, b = random_dict(rng), random_dict(rng)
        b.update({m: c for m, c in list(a.items())[:2]})
        want = pure.dict_add(a, pure.dict_neg(b))
        got = pure.dict_sub(a, b)
        assert list(got.items()) == list(want.items())
        assert all(not c.is_zero() for c in got.values())


def test_dict_scale_by_int_fraction_and_gaussian_factors():
    """A plain rational factor scales each coefficient as the Gaussian
    rational it equals would, and a zero factor of any type leaves no
    stored zero."""
    rng = random.Random(3)
    for _ in range(20):
        a = random_dict(rng)
        for c in (rng.randint(-4, 4), Fraction(rng.randint(-4, 4), rng.randint(1, 6))):
            got = pure.dict_scale(a, c)
            assert got == pure.dict_scale(a, GaussianRational(c))
            assert all(not v.is_zero() for v in got.values())
            assert (got == {}) == (c == 0)
    a = random_dict(rng)
    for zero in (0, Fraction(0), GaussianRational(0)):
        assert pure.dict_scale(a, zero) == {}


def test_zero_test_is_the_truth_value_for_every_value_type():
    """One set of loops serves Fraction, GaussianRational, FourierScalar and
    Poly values: entries that cancel leave no key in any kernel."""
    from sympconn.euclidean import Poly
    from sympconn.fourier import FourierScalar

    values = [
        Fraction(2, 3),
        GaussianRational(Fraction(1, 2), -1),
        FourierScalar.cosine(4, (1, 0, -1, 0), 3) + FourierScalar.sine(4, (0, 2, 0, 0)),
        Poly(4, {(1, 0, 0, 0): Fraction(1, 2), (0, 0, 0, 0): 5}),
    ]
    for v in values:
        assert v and not v - v
        w = v + v
        a = {(0,): v, (1,): v}
        b = {(0,): v, (2,): w}
        assert pure.dict_add(a, pure.dict_neg(b)) == {(1,): v, (2,): -w}
        assert pure.dict_sub(a, b) == {(1,): v, (2,): -w}
        assert pure.dict_add(b, {(0,): -v}) == {(2,): w}
        acc = dict(a)
        pure.accumulate(acc, (0,), -v)
        pure.accumulate(acc, (3,), v - v)
        assert acc == {(1,): v}
        assert pure.dict_scale(a, 0) == {} and pure.dict_scale(a, 2) == {(0,): w, (1,): w}
        square = pure.dict_convolve(a, {(0,): v, (1,): -v})
        assert square == {(0,): v * v, (2,): -(v * v)}
