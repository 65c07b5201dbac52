"""The sparse mode-dictionary kernels."""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from sympconn import fourier, series, symplecto
from sympconn._kernel import pure
from sympconn.euclidean import Poly
from sympconn.fourier import FourierScalar, SymplecticData
from sympconn.rationals import GaussianRational

from references import as_gaussian


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
        assert pure.dict_scale(a, 0) == {} and pure.dict_scale(a, 2) == {(0,): w, (1,): w}
        square = pure.dict_convolve(a, {(0,): v, (1,): -v})
        assert square == {(0,): v * v, (2,): -(v * v)}


# -- the exact accumulator behind the curvature sums ----------------------------------

# P is unimodular, so (1/2) P^T omega P is a non-standard rational omega; the
# weights below are the nonzero entries of it and of its inverse, as the
# curvature sums read them.
_P = ((1, 2, 0, 1), (0, 1, 1, 0), (0, 0, 1, 3), (0, 0, 0, 1))
_LO = SymplecticData.standard(4).omega_lo
_OMEGA = SymplecticData([
    [Fraction(sum(_P[k][i] * _LO[k][l] * _P[l][j] for k in range(4) for l in range(4)), 2)
     for j in range(4)] for i in range(4)
])
WEIGHTS = sorted({x for m in (_OMEGA.omega_lo, _OMEGA.omega_hi) for row in m for x in row if x})

_rationals = st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1, 2, 3, 4, 6, 9)))
_coeffs = st.builds(GaussianRational, _rationals, _rationals).filter(bool)
_maps = st.dictionaries(st.tuples(st.integers(-1, 1), st.integers(-1, 1)), _coeffs, max_size=4)
_terms = st.one_of(
    st.tuples(st.just("add"), _maps, st.sampled_from(WEIGHTS + [1, -3])),
    st.tuples(st.just("product"), _maps, st.tuples(_maps, st.sampled_from(WEIGHTS + [1, -3]))),
    st.tuples(st.just("derivative"), _maps, st.integers(0, 1)),
)
_ops = st.lists(st.tuples(st.integers(0, 2), st.sampled_from((-2, -1, 1, 2)), _terms),
                max_size=8)


def _reference_term(term, sign):
    """The term's coefficient map from plain Gaussian-rational arithmetic."""
    kind, a, x = term
    if kind == "add":
        return {m: c * (sign * x) for m, c in a.items()}
    if kind == "product":
        b, w = x
        return pure.dict_scale(pure.dict_convolve(a, b), sign * w)
    return pure.dict_scale(pure.dict_derivative(a, x), sign)


def _add_term(acc, key, term, sign):
    kind, a, x = term
    if kind == "add":
        acc.add(key, a, sign, x)
    elif kind == "product":
        b, w = x
        acc.add_product(key, a, b, sign, w)
    else:
        acc.add_derivative(key, a, x, sign)


@settings(max_examples=150, deadline=None)
@given(_ops, st.integers(0, 8))
def test_gaussian_sums_match_plain_gaussian_rational_sums(ops, cancelled):
    """Every adder, with every sign and, for `add` and `add_product`, rational
    weights, against the same sums in GaussianRational arithmetic; the first `cancelled` terms are added again with the opposite
    sign, so modes and whole keys cancel to zero.  `finish` keeps no zero mode
    and no empty key, and `all_zero` says whether anything is left."""
    acc, want = pure.GaussianSums(), {}
    for key, sign, term in ops + [(key, -sign, term) for key, sign, term in ops[:cancelled]]:
        _add_term(acc, (key,), term, sign)
        want[(key,)] = pure.dict_add(want.get((key,), {}), _reference_term(term, sign))
    want = {key: coeffs for key, coeffs in want.items() if coeffs}
    got = acc.finish(FourierScalar, 2)
    assert {key: f.coeffs for key, f in got.items()} == want
    assert list(got) == [key for key in acc.sums if key in want]
    assert acc.all_zero() == (not want)
    if cancelled >= len(ops):
        assert got == {} and acc.all_zero()


_fractions = _rationals.filter(bool)
_fraction_maps = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), _fractions,
                                 max_size=4)
_fraction_ops = st.lists(st.tuples(st.integers(0, 2), st.sampled_from((-2, -1, 1, 2)), st.one_of(
    st.tuples(st.just("add"), _fraction_maps, st.sampled_from(WEIGHTS + [1, -3])),
    st.tuples(st.just("product"), _fraction_maps,
              st.tuples(_fraction_maps, st.sampled_from(WEIGHTS + [1, -3]))),
)), max_size=8)


@settings(max_examples=150, deadline=None)
@given(_fraction_ops, st.integers(0, 8))
def test_gaussian_sums_match_plain_fraction_sums(ops, cancelled):
    """`Fraction` maps through `add` and `add_product`, with signs, rational
    weights and cancellations as above, against the same sums in `Fraction`
    arithmetic: `finish(Poly, dim)` gives `Fraction` coefficients, no zero
    mode and no empty key."""
    acc, want = pure.GaussianSums(), {}
    for key, sign, term in ops + [(key, -sign, term) for key, sign, term in ops[:cancelled]]:
        _add_term(acc, (key,), term, sign)
        want[(key,)] = pure.dict_add(want.get((key,), {}), _reference_term(term, sign))
    want = {key: coeffs for key, coeffs in want.items() if coeffs}
    got = acc.finish(Poly, 2)
    assert {key: f.coeffs for key, f in got.items()} == want
    assert all(type(c) is Fraction and c for f in got.values() for c in f.coeffs.values())
    assert all(type(f) is Poly and f.coeffs for f in got.values())
    assert acc.all_zero() == (not want)


_term_lists = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), st.tuples(
    st.integers(-6, 6).filter(bool), st.sampled_from((1, 2, 4, 6)))).map(
        lambda terms: [(m, p, 0, d) for m, (p, d) in terms.items()])
_any_weight = st.sampled_from(WEIGHTS + [1, -3, 2, Fraction(3, 2), Fraction(-1, 6)])
_fraction_route_terms = st.one_of(
    st.tuples(st.just("add"), _fraction_maps, _any_weight),
    st.tuples(st.just("product"), _fraction_maps, st.tuples(_fraction_maps, _any_weight)),
    st.tuples(st.just("times_terms"), _fraction_maps, st.tuples(_term_lists, _any_weight)),
)
_fraction_route_ops = st.lists(st.tuples(st.integers(0, 2), st.sampled_from((-2, -1, 1, 2)),
                                         _fraction_route_terms), max_size=8)


def _add_route_term(acc, key, term, sign, read):
    """One adder call, each coefficient map passed through read first."""
    kind, a, x = term
    if kind == "add":
        acc.add(key, read(a), sign, x)
    elif kind == "product":
        b, w = x
        acc.add_product(key, read(a), read(b), sign, w)
    else:
        terms, w = x
        acc.add_times_terms(key, read(a), terms, sign, w)


@settings(max_examples=200, deadline=None)
@given(_fraction_route_ops, st.integers(0, 8))
def test_fraction_maps_are_summed_as_their_gaussian_copies_were(ops, cancelled):
    """`Fraction` maps read as they are through `add`, `add_product` and
    `add_times_terms`, with int and Fraction weights, signs, empty maps and
    sums that cancel to zero, leave the same unreduced triples, key by key
    and mode by mode in the same order, as the same maps first rebuilt as
    `GaussianRational`s (`references.as_gaussian`), and finish equal."""
    new, old = pure.GaussianSums(), pure.GaussianSums()
    for key, sign, term in ops + [(key, -sign, term) for key, sign, term in ops[:cancelled]]:
        _add_route_term(new, (key,), term, sign, lambda a: a)
        _add_route_term(old, (key,), term, sign, as_gaussian)
    assert [(key, list(t.items())) for key, t in new.sums.items()] == [
        (key, list(t.items())) for key, t in old.sums.items()]
    assert new.finish(Poly, 2) == old.finish(Poly, 2)
    assert new.all_zero() == old.all_zero()


def test_no_module_keeps_a_per_term_accumulator():
    """`GaussianSums` is the one exact accumulator: the kernel defines no
    per-term `accumulate`, and no module that sums binds one."""
    for module in (pure, series, symplecto, fourier):
        assert not hasattr(module, "accumulate")


def test_gaussian_sums_merge_over_the_lcm_of_the_denominators():
    """A sum's denominator is the lcm of its terms' denominators: it does not
    grow with the number of terms."""
    acc = pure.GaussianSums()
    halves = {(0, 0): GaussianRational(Fraction(1, 2), Fraction(1, 3))}
    for w in (1, Fraction(1, 4), Fraction(5, 6), Fraction(-1, 4), 3) * 5:
        acc.add("k", halves, 1, w)
    (p, q, d), = acc.sums["k"].values()
    assert d == 72  # lcm(6, 24, 36, 24, 6)
    total = 5 * (1 + Fraction(5, 6) + 3)
    assert acc.finish(FourierScalar, 2)["k"].coeffs == {(0, 0): GaussianRational(total / 2, total / 3)}


def test_gaussian_sums_signs_of_the_product_and_derivative_adders():
    """cos x times itself, and the derivative of sin x, with both signs."""
    cos = FourierScalar.cosine(2, (1, 0)).coeffs
    sin = FourierScalar.sine(2, (1, 0)).coeffs
    for sign in (1, -1, 2):
        acc = pure.GaussianSums()
        acc.add_product("sq", cos, cos, sign)
        acc.add_derivative("d", sin, 0, sign)
        got = acc.finish(FourierScalar, 2)
        half = Fraction(sign, 2)
        # cos^2 = 1/2 + cos(2x)/2, d sin = cos
        assert got["sq"] == FourierScalar.constant(2, half) + FourierScalar.cosine(2, (2, 0), half)
        assert got["d"] == FourierScalar.cosine(2, (1, 0), sign)
