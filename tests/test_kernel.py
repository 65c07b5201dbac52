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
