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
