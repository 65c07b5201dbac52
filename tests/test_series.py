"""Laws of the truncated Lie-series calculus, on the torus and on R^(2n)."""

import hashlib
import random
from fractions import Fraction
from itertools import product

import pytest

import sympconn.euclidean as euclidean
import sympconn.series as series
from sympconn.curvature import ConnectionCurve
from sympconn.errors import ConfigurationError, InternalInconsistency
from sympconn.euclidean import Poly, PolyVectorField
from sympconn.fourier import FourierScalar, SymplecticData, TensorField
from sympconn.generate import random_real_scalar, random_symmetric_field
from sympconn.series import (
    SparseScalar,
    VectorField,
    coordinate_tests,
    exp_lie_connection,
    exp_terms,
    merge_exponentials,
    order_from_mismatch,
)
from sympconn.rationals import GaussianRational
from sympconn.serialize import dumps, json_text, scalar_to_json
from sympconn.symplecto import FourierVectorField, conj_affine, hamiltonian_field

from references import accumulate, bracket, derive, exp_ad, exp_apply, from_generators

DIM = 4
CAP = 3
SD = SymplecticData.standard(DIM)


def poly(terms):
    return Poly(DIM, terms)


def poly_hamiltonian_field(h):
    """X_h^c = sum_b omega^{bc} dh/dx^b, as in `symplecto.hamiltonian_field`."""
    hi = SD.omega_hi
    comps = []
    for c in range(DIM):
        xc = Poly.zero(DIM)
        for b in range(DIM):
            if hi[b][c]:
                xc = xc + h.derivative(b).scale(hi[b][c])
        comps.append(xc)
    return PolyVectorField(comps)


def torus_case():
    cos1 = FourierScalar.cosine(DIM, (1, 0, 0, 0))
    sin12 = FourierScalar.sine(DIM, (1, 1, 0, 0), Fraction(1, 2))
    cos3 = FourierScalar.cosine(DIM, (0, 0, 1, 0), Fraction(-2, 3))
    gens = [FourierVectorField.zero(DIM)] + [
        hamiltonian_field(SD, h) for h in (cos1, sin12, cos3)
    ]
    other = [FourierVectorField.zero(DIM)] + [
        hamiltonian_field(SD, h) for h in (cos3, FourierScalar.zero(DIM), cos1)
    ]
    scalars = [cos1 + sin12, FourierScalar.zero(DIM), cos3, FourierScalar.zero(DIM)]
    fields = [
        FourierVectorField.constant(DIM, (1, 0, 0, 0)),
        hamiltonian_field(SD, sin12),
        FourierVectorField.zero(DIM),
        FourierVectorField.constant(DIM, (0, 0, 0, 2)),
    ]
    return gens, other, scalars, fields


def euclidean_case():
    quadratic = poly({(1, 0, 1, 0): 1, (0, 2, 0, 0): Fraction(1, 2)})
    cubic = poly({(3, 0, 0, 0): Fraction(1, 3), (0, 1, 0, 1): 1})
    linear = poly({(0, 0, 0, 1): -2})
    gens = [PolyVectorField.zero(DIM)] + [
        poly_hamiltonian_field(h) for h in (quadratic, linear, cubic)
    ]
    other = [PolyVectorField.zero(DIM)] + [
        poly_hamiltonian_field(h) for h in (cubic, quadratic, linear)
    ]
    scalars = [poly({(1, 1, 0, 0): 1}), poly({(0, 0, 2, 0): 3}), Poly.zero(DIM),
               poly({(0, 0, 0, 1): 1})]
    fields = [
        PolyVectorField.constant(DIM, (1, 0, 0, 0)),
        poly_hamiltonian_field(cubic),
        PolyVectorField.zero(DIM),
        PolyVectorField.constant(DIM, (0, 0, 0, 2)),
    ]
    return gens, other, scalars, fields


CASES = pytest.mark.parametrize("case", [torus_case, euclidean_case], ids=["torus", "euclidean"])


def field_curve_apply(ycurve, fcurve):
    """The operator product Y_t f_t per order, order-0 field included."""
    zero = type(fcurve[0]).zero(fcurve[0].dim)
    out = []
    for k in range(len(fcurve)):
        acc = zero
        for u in range(k + 1):
            acc = acc + ycurve[u].apply(fcurve[k - u])
        out.append(acc)
    return out


@CASES
def test_exp_of_minus_x_inverts_exp_of_x(case):
    gens, _, scalars, _ = case()
    neg = [-g for g in gens]
    assert exp_apply(neg, exp_apply(gens, scalars)) == scalars
    assert exp_apply(gens, exp_apply(neg, scalars)) == scalars
    assert exp_apply(gens, scalars) != scalars


@CASES
def test_merge_applies_as_the_product(case):
    gens, other, scalars, _ = case()
    merged = merge_exponentials(SD, gens, other)
    assert exp_apply(merged, scalars) == exp_apply(gens, exp_apply(other, scalars))
    assert merged != merge_exponentials(SD, other, gens)


def test_exp_turns_sums_into_products():
    for case in (torus_case, euclidean_case):
        gens, _, _, _ = case()
        third = [g.scale(Fraction(1, 3)) for g in gens]
        rest = [g.scale(Fraction(2, 3)) for g in gens]
        assert merge_exponentials(SD, third, rest) == gens
        assert all(z.is_zero() for z in merge_exponentials(SD, gens, [-g for g in gens]))


@CASES
def test_exp_ad_is_conjugation(case):
    gens, _, scalars, fields = case()
    neg = [-g for g in gens]
    lhs = field_curve_apply(exp_ad(gens, fields), scalars)
    rhs = exp_apply(gens, field_curve_apply(fields, exp_apply(neg, scalars)))
    assert lhs == rhs


@CASES
def test_derive_and_bracket_match_their_formulas(case):
    gens, other, scalars, _ = case()
    field = type(gens[1])
    for x, y in ((gens[1], other[1]), (gens[3], other[2]), (gens[2], gens[3])):
        assert derive(x, y) == field([x.apply(c) for c in y.comps])
        assert bracket(x, y) == field(
            [x.apply(yc) - y.apply(xc) for xc, yc in zip(x.comps, y.comps)]
        )
        for f in scalars:
            assert bracket(x, y).apply(f) == x.apply(y.apply(f)) - y.apply(x.apply(f))


def test_field_types_do_not_compare_equal():
    assert FourierVectorField.zero(DIM) != PolyVectorField.zero(DIM)
    assert FourierVectorField.zero(DIM) == FourierVectorField.constant(DIM, (0, 0, 0, 0))


def test_scalar_types_share_one_sparse_arithmetic():
    """Poly and FourierScalar inherit their arithmetic from SparseScalar, and
    the R^(2n) model binds no dense copy of the cube algebra."""
    shared = ("__init__", "__add__", "__sub__", "__neg__", "__mul__", "__rmul__",
              "scale", "zero", "constant", "is_zero", "axes", "__bool__", "is_constant",
              "constant_part", "__eq__", "__hash__")
    for cls in (Poly, FourierScalar):
        assert cls.__bases__ == (SparseScalar,)
        assert not set(shared) & set(vars(cls))
    for name in ("mat_mul", "cube_endomorphisms"):
        assert not hasattr(euclidean, name)


def test_the_checked_constructor_refuses_float_and_bool_coefficients():
    """A float or a bool coefficient, zero or not, is a configuration error
    naming its key for both scalar types; int, Fraction and Gaussian
    rational coefficients are converted as before and zeros dropped."""
    for scalar in (Poly, FourierScalar):
        for bad, kind in ((0.1, "float"), (0.5, "float"), (0.0, "float"), (True, "bool")):
            message = rf"^coefficient at \(1, 0, 0, 0\) is a {kind}, not a rational$"
            with pytest.raises(ConfigurationError, match=message):
                scalar(DIM, {(1, 0, 0, 0): bad})
    half = Fraction(1, 2)
    assert Poly(DIM, {(1, 0, 0, 0): 2, (0, 1, 0, 0): half, (0, 0, 1, 0): 0}).coeffs == {
        (1, 0, 0, 0): Fraction(2), (0, 1, 0, 0): half}
    f = FourierScalar(DIM, {(1, 0, 0, 0): 2, (0, 1, 0, 0): half,
                            (0, 0, 1, 0): GaussianRational(0, 1), (0, 0, 0, 1): 0})
    assert f.coeffs == {(1, 0, 0, 0): GaussianRational(2), (0, 1, 0, 0): GaussianRational(half),
                        (0, 0, 1, 0): GaussianRational(0, 1)}
    assert all(type(c) is GaussianRational for c in f.coeffs.values())


def test_axes_are_those_of_the_nonzero_derivatives():
    """`axes` lists, ascending, exactly the axes along which the derivative
    is nonzero, for both scalar types; X(f) and the Lie data differentiate
    along those only.  They are computed once per scalar: a second read
    returns the same tuple, equal to what a fresh copy of the scalar
    computes, and neither `==` nor `hash` sees what a scalar has kept."""
    rng = random.Random("axes")
    scalars = [Poly.zero(DIM), FourierScalar.zero(DIM), poly({(0, 0, 0, 0): 3}),
               FourierScalar.constant(DIM, 2)]
    for _ in range(30):
        scalars.append(random_real_scalar(rng, DIM, max_modes=2, mode_bound=1))
        exponents = [tuple(rng.randint(0, 1) for _ in range(DIM)) for _ in range(2)]
        scalars.append(poly({e: Fraction(rng.randint(1, 5)) for e in exponents}))
    for f in scalars:
        assert f.axes() == tuple(a for a in range(DIM) if not f.derivative(a).is_zero()), f
        fresh = type(f)(DIM, dict(f.coeffs), _validated=True)
        assert fresh == f and hash(fresh) == hash(f)
        assert f.axes() is f.axes() and fresh.axes() == f.axes()


# -- one-pass normal ordering --------------------------------------------------


def reference_merge_exponentials(sdata, gens_a, gens_b):
    """Normal ordering as it was first written: exp(Z_t) f_a is re-expanded
    from scratch at every order, and Z^(k) is read off the order-k mismatch."""
    field = type(gens_a[0])
    dim, cap = gens_a[0].dim, len(gens_a) - 1
    tests = coordinate_tests(field, dim, cap)
    targets = [exp_apply(gens_a, exp_apply(gens_b, f)) for f in tests]
    z = [field.zero(dim)] * (cap + 1)
    for k in range(1, cap + 1):
        currents = [exp_apply(z, f) for f in tests]
        z[k] = order_from_mismatch(field, [t[k] - c[k] for t, c in zip(targets, currents)])
        if not z[k].is_real() or not z[k].is_symplectic(sdata):
            raise InternalInconsistency(f"merged generator at order {k} is not real symplectic")
    for f, target in zip(tests, targets):
        if exp_apply(z, f) != target:
            raise InternalInconsistency("normal ordering failed verification")
    return z


def random_torus_ladder(rng, sdata, cap):
    """Hamiltonian fields of small random real potentials, some orders zero."""
    gens = [FourierVectorField.zero(sdata.dim)]
    for _ in range(cap):
        f = random_real_scalar(rng, sdata.dim, max_modes=2, mode_bound=1)
        if rng.random() < 0.25:
            f = FourierScalar.zero(sdata.dim)
        gens.append(hamiltonian_field(sdata, f))
    return gens


def random_poly_ladder(rng, cap):
    """Hamiltonian fields of random polynomials of degree 1 to 3 on R^4."""
    gens = [PolyVectorField.zero(DIM)]
    for _ in range(cap):
        terms = {}
        for _ in range(rng.randint(1, 2)):
            expo = [0] * DIM
            for _ in range(rng.randint(1, 3)):
                expo[rng.randrange(DIM)] += 1
            terms[tuple(expo)] = Fraction(rng.choice([-2, -1, 1, 3]), rng.randint(1, 3))
        gens.append(poly_hamiltonian_field(poly(terms)))
    return gens


@pytest.mark.parametrize("kind, dim", [("torus", 4), ("torus", 6), ("euclidean", 4)])
def test_one_pass_merge_equals_the_re_expanding_reference(kind, dim):
    rng = random.Random(f"merge-{kind}-{dim}")
    sdata = SymplecticData.standard(dim)
    for cap in range(1, 6):
        for _ in range(2 if dim == 4 and cap < 5 else 1):
            if kind == "torus":
                a, b = random_torus_ladder(rng, sdata, cap), random_torus_ladder(rng, sdata, cap)
            else:
                a, b = random_poly_ladder(rng, cap), random_poly_ladder(rng, cap)
            merged = merge_exponentials(sdata, a, b)
            assert merged == reference_merge_exponentials(sdata, a, b), (kind, dim, cap)
            assert merged[0].is_zero() and len(merged) == cap + 1


# -- n factors in one merge -----------------------------------------------------

# a non-standard rational omega
SD_RATIONAL = SymplecticData([
    [0, Fraction(2, 3), 0, 0], [Fraction(-2, 3), 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0],
])


def folded_merge(sdata, ladders):
    """The left fold of two-factor merges, exp(Z) = (exp(L1) exp(L2)) ..."""
    merged = ladders[0]
    for ladder in ladders[1:]:
        merged = merge_exponentials(sdata, merged, ladder)
    return merged


def random_step_ladder(rng, sdata, cap):
    """One Hamiltonian step: a ladder with a single nonzero order."""
    gens = [FourierVectorField.zero(sdata.dim)] * (cap + 1)
    f = FourierScalar.zero(sdata.dim)
    while f.is_zero():
        f = random_real_scalar(rng, sdata.dim, max_modes=2, mode_bound=1).zero_mean()
    gens[rng.randint(1, cap)] = hamiltonian_field(sdata, f)
    return gens


def ladder_text(sdata, ladder):
    return dumps(from_generators(sdata, len(ladder) - 1, ladder))


def poly_step_ladders(rng, cap, steps):
    """Single-order Hamiltonian steps at the orders 1, 2, ... (cycling through
    1..cap), with random Hamiltonians of degree 2 or 3 on R^4."""
    out = []
    for i in range(steps):
        h = Poly.zero(DIM)
        while h.degree() < 2:
            expo = tuple(rng.randint(0, 2) for _ in range(DIM))
            h = poly({expo: Fraction(rng.randint(1, 3), rng.randint(1, 2))})
        step = [PolyVectorField.zero(DIM)] * (cap + 1)
        step[1 + i % cap] = poly_hamiltonian_field(h)
        out.append(step)
    return out


@pytest.mark.parametrize("sdata, caps", [
    (SD, (2, 3, 4, 5)), (SymplecticData.standard(6), (2, 3, 4, 5)), (SD_RATIONAL, (2, 3, 4)),
], ids=["dim4", "dim6", "rational"])
def test_n_factor_merge_equals_the_binary_fold_on_the_torus(sdata, caps):
    """Full random ladders at cap 2, Hamiltonian steps above it."""
    rng = random.Random(f"n-factor-{sdata.omega_lo}")
    reversals = 0
    for cap in caps:
        ladder = random_torus_ladder if cap == 2 else random_step_ladder
        ladders = [ladder(rng, sdata, cap) for _ in range(5)]
        for n in range(1, 6):
            merged = merge_exponentials(sdata, *ladders[:n])
            folded = folded_merge(sdata, ladders[:n])
            assert merged == folded, (cap, n)
            assert ladder_text(sdata, merged) == ladder_text(sdata, folded)
            backwards = merge_exponentials(sdata, *reversed(ladders[:n]))
            assert (backwards != merged) == (folded_merge(sdata, ladders[n - 1::-1]) != folded)
            reversals += backwards != merged
    assert reversals


@pytest.mark.parametrize("cap", [2, 3])
def test_n_factor_merge_equals_the_binary_fold_on_r2n(cap):
    rng = random.Random(f"n-factor-poly-{cap}")
    ladders = poly_step_ladders(rng, cap, 5)
    reversals = 0
    for n in range(1, 6):
        merged = merge_exponentials(SD, *ladders[:n])
        folded = folded_merge(SD, ladders[:n])
        assert merged == folded, n
        backwards = merge_exponentials(SD, *reversed(ladders[:n]))
        assert (backwards != merged) == (folded_merge(SD, ladders[n - 1::-1]) != folded)
        reversals += backwards != merged
    assert reversals


@pytest.mark.parametrize("case", [torus_case, euclidean_case], ids=["torus", "euclidean"])
def test_merge_makes_one_exp_terms_pass_per_ladder_and_one_to_verify(case, monkeypatch):
    """One `exp_terms` pass over all dim coordinate tests per ladder for the
    targets, innermost first, one solving pass and one verifying pass,
    whatever the cap: the orders in between re-expand nothing."""
    calls = []

    def counting(op, gens, curves, solve=None):
        calls.append((len(gens), len(curves), solve is not None))
        return exp_terms(op, gens, curves, solve)

    monkeypatch.setattr(series, "exp_terms", counting)
    gens, other, _, _ = case()
    for cap in range(1, len(gens)):
        calls.clear()
        merge_exponentials(SD, gens[:cap + 1], other[:cap + 1])
        assert calls == [(cap + 1, DIM, False)] * 2 + [(cap + 1, DIM, True), (cap + 1, DIM, False)]


SHEAR = ((1, 0, 1, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
SWAP = ((0, 0, 1, 0), (0, 1, 0, 0), (-1, 0, 0, 0), (0, 0, 0, 1))

# sha256 of `ladder_text` of each merge, pinned at commit c468bcf
MERGE_PINS = {
    "one": "a311b96dea085e2d667e8903b1e37dda4e3c335db97f6c07e75598ca5e5f6eb9",
    "two": "85d56638b851604a6495bd3dfffab28404bb2b1cc915e933ff07ae4a8a8523e6",
    "three": "fed34fbb84ec8f90eea8f2f233fd7b12ee10a79af89ab178cdbb420575cd17d1",
}


def affine_moved(c, d, ladder):
    """Each generator conjugated through the affine map x -> C x + 2 pi d,
    as `compose` moves the factors left of an affine part."""
    c_inv = SD.symplectic_inverse(c)
    return [g if g.is_zero() else conj_affine(c, c_inv, d, g) for g in ladder]


@pytest.mark.parametrize("name", sorted(MERGE_PINS))
def test_merge_of_one_two_and_three_ladders_is_byte_identical(name):
    """Random cap-4 ladders, two of them moved through affine maps."""
    assert SD.is_symplectic_matrix(SHEAR) and SD.is_symplectic_matrix(SWAP)
    rng = random.Random("merge-pins")
    a, b, c = (random_torus_ladder(rng, SD, 4) for _ in range(3))
    b = affine_moved(SHEAR, (Fraction(1, 4), 0, Fraction(1, 2), 0), b)
    c = affine_moved(SWAP, (0, Fraction(3, 4), 0, 0), c)
    ladders = {"one": [a], "two": [a, b], "three": [c, a, b]}[name]
    merged = merge_exponentials(SD, *ladders)
    assert hashlib.sha256(ladder_text(SD, merged).encode()).hexdigest() == MERGE_PINS[name]


# -- the order-by-order exponential against the column form ---------------------


def reference_lie_action(op, gens, curve):
    """X_t acting on a whole curve: order k is sum_{s=1..k} op(X^(s), Y^(k-s))."""
    zero = type(curve[0]).zero(curve[0].dim)
    out = []
    for k in range(len(curve)):
        acc = zero
        for s in range(1, k + 1):
            if not gens[s].is_zero() and not curve[k - s].is_zero():
                acc = acc + op(gens[s], curve[k - s])
        out.append(acc)
    return out


def reference_exp(op, gens, curve):
    """The exponential as first written, one whole-curve column per power:
    term_j = (X_t term_(j-1)) / j, summed until a column vanishes."""
    out = list(curve)
    term = list(curve)
    for j in range(1, len(curve)):
        term = [g.scale(Fraction(1, j)) for g in reference_lie_action(op, gens, term)]
        if all(g.is_zero() for g in term):
            break
        out = [a + b for a, b in zip(out, term)]
    return out


@pytest.mark.parametrize("kind, dim", [("torus", 4), ("torus", 6), ("euclidean", 4)])
def test_exp_apply_and_exp_ad_equal_the_column_reference(kind, dim):
    """Random scalar and field curves, order 0 included, at caps 1 to 5."""
    rng = random.Random(f"exp-{kind}-{dim}")
    sdata = SymplecticData.standard(dim)
    for cap in range(1, 6):
        if kind == "torus":
            gens = random_torus_ladder(rng, sdata, cap)
            fields = random_torus_ladder(rng, sdata, cap)
            scalars = [random_real_scalar(rng, dim, max_modes=2, mode_bound=1)
                       for _ in range(cap + 1)]
        else:
            gens = random_poly_ladder(rng, cap)
            fields = random_poly_ladder(rng, cap)
            scalars = [g.comps[0] for g in random_poly_ladder(rng, cap)]
        fields[0] = type(fields[0]).constant(dim, [rng.randint(-2, 2) for _ in range(dim)])
        scalars[0] = scalars[0] + type(scalars[0]).constant(dim, 1)
        assert exp_apply(gens, scalars) == reference_exp(VectorField.apply, gens, scalars)
        assert exp_ad(gens, fields) == reference_exp(bracket, gens, fields)


def test_scale_by_plus_or_minus_one_multiplies_no_coefficient(monkeypatch):
    """Scalars are immutable, so scale(1) is the scalar itself and scale(-1)
    its negation; neither goes through the kernel's dict_scale."""
    f = random_real_scalar(random.Random(3), DIM)
    p = poly({(1, 0, 0, 0): Fraction(2, 3), (0, 2, 0, 1): -1})
    assert not f.is_zero()

    def forbidden(*args):
        raise AssertionError("a factor of +1 or -1 was multiplied into each coefficient")

    monkeypatch.setattr(series.K, "dict_scale", forbidden)
    for g in (f, p):
        for one in (1, Fraction(1)):
            assert g.scale(one) is g and one * g is g and g * one is g
        for minus_one in (-1, Fraction(-1)):
            assert g.scale(minus_one) == -g
            assert g.scale(minus_one).coeffs == {m: -c for m, c in g.coeffs.items()}


# -- the Lie series against the per-term sums it replaced ------------------------


def reference_apply(x, f):
    """`VectorField.apply` as first written: one scalar sum per component."""
    out = x.scalar.zero(x.dim)
    for a, xa in enumerate(x.comps):
        if not xa.is_zero():
            out = out + xa * f.derivative(a)
    return out


def reference_exp_lie_connection(gens, gamma):
    """`exp_lie_connection` as first written: every term of
    (L_X G)^p_ab = X(G^p_ab) - G^q_ab d_q X^p + G^p_qb d_a X^q + G^p_aq d_b X^q
    and of d d X is a scalar summed with `accumulate`, and each power of
    L_X is scaled by 1/j before it is added."""
    dim = gens[0].dim

    def lie_x(x, order, acc):
        d = x.comps
        for (a, b, p), g in order.items():
            accumulate(acc, (a, b, p), reference_apply(x, g))
            for r in range(dim):
                accumulate(acc, (a, b, r), -(g * d[r].derivative(p)))
                accumulate(acc, (r, b, p), g * d[a].derivative(r))
                accumulate(acc, (a, r, p), g * d[b].derivative(r))

    def lie(curve):
        out = [{} for _ in curve]
        for k, acc in enumerate(out):
            for s in range(1, k + 1):
                if not gens[s].is_zero():
                    lie_x(gens[s], curve[k - s], acc)
        return out

    term = lie(gamma)
    for k, x in enumerate(gens):
        for a, b, p in product(range(dim), repeat=3):
            accumulate(term[k], (a, b, p), x.comps[p].derivative(b).derivative(a))
    out = [dict(order) for order in gamma]
    for j in range(1, len(gamma)):
        if j > 1:
            term = [{idx: f.scale(Fraction(1, j)) for idx, f in order.items()}
                    for order in lie(term)]
        if not any(term):
            break
        for order, add in zip(out, term):
            for idx, f in add.items():
                accumulate(order, idx, f)
    return out


def rational_omega(dim):
    """A non-standard rational omega, (1/2) P^T omega_0 P for the standard
    omega_0 and a unimodular upper-triangular P."""
    lo = SymplecticData.standard(dim).omega_lo
    p = [[int(j == i) + int(j == i + 1) + 2 * int(j == i + 3) for j in range(dim)]
         for i in range(dim)]
    r = range(dim)
    return SymplecticData([[Fraction(sum(p[k][i] * lo[k][l] * p[l][j] for k in r for l in r), 2)
                            for j in r] for i in r])


@pytest.mark.parametrize("dim", [4, 6])
def test_exp_lie_connection_matches_the_per_term_reference_on_the_torus(dim):
    """Random real symmetric connections and Hamiltonian ladders under a
    rational omega, caps 2 to 5; apply is compared on every generator and
    Christoffel symbol met."""
    rng = random.Random(f"lie-{dim}")
    sdata = rational_omega(dim)
    assert not sdata.is_standard() and any(x.denominator > 1 for row in sdata.omega_lo for x in row)
    for cap in range(2, 6):
        gens = [FourierVectorField.zero(dim)] * (cap + 1)
        while all(x.is_zero() for x in gens):
            gens[1:] = [hamiltonian_field(sdata, random_real_scalar(rng, dim, 1, 1))
                        for _ in range(cap)]
        abar = [TensorField.zero(dim, 3, "fully_symmetric")]
        abar += [random_symmetric_field(rng, dim, 1, 1, triples=1) for _ in range(cap)]
        gamma = [t.components for t in ConnectionCurve(sdata, cap, abar).mixed]
        moved = exp_lie_connection(gens, gamma)
        assert moved == reference_exp_lie_connection(gens, gamma), cap
        assert moved != gamma and not moved[0]
        for x in gens:
            for f in (f for order in gamma for f in order.values()):
                assert x.apply(f) == reference_apply(x, f)


# -- one accumulator per order against the per-term table ------------------------


def reference_exp_terms(op, gens, curves, solve=None):
    """`exp_terms` as it was before each order went into one accumulator:
    every Q_j[k] is summed term by term with `+` and then scaled by 1/j; op
    is `VectorField.apply` or `bracket`."""
    cap = len(gens) - 1
    zero = type(curves[0][0]).zero(curves[0][0].dim)
    tables = [[list(c)] + [[zero] * (cap + 1) for _ in range(cap)] for c in curves]
    for k in range(1, cap + 1):
        for q in tables:
            for j in range(1, k + 1):
                acc = zero
                for s in range(1, k - j + 2):
                    prev = q[j - 1][k - s]
                    if not gens[s].is_zero() and not prev.is_zero():
                        acc = acc + op(gens[s], prev)
                q[j][k] = acc if j == 1 or acc is zero else acc.scale(Fraction(1, j))
        if solve is not None:
            gens[k] = solve(k, [series._order_sum(q, k) for q in tables])
            for q in tables:
                q[1][k] = q[1][k] + op(gens[k], q[0][0])
    return tables


def reference_per_term_exp(op, gens, curve):
    q = reference_exp_terms(op, gens, [curve])[0]
    return [series._order_sum(q, k) for k in range(len(curve))]


def reference_per_term_merge(sdata, *ladders):
    """`merge_exponentials` on the per-term table, verification included."""
    field = type(ladders[0][0])
    dim, cap = ladders[0][0].dim, len(ladders[0]) - 1
    tests = coordinate_tests(field, dim, cap)
    targets = []
    for f in tests:
        for gens in reversed(ladders):
            f = reference_per_term_exp(VectorField.apply, gens, f)
        targets.append(f)

    def solve(k, partials):
        zk = order_from_mismatch(field, [t[k] - p for t, p in zip(targets, partials)])
        assert zk.is_real() and reference_is_symplectic(zk, sdata)
        return zk

    z = [field.zero(dim)] * (cap + 1)
    reference_exp_terms(VectorField.apply, z, tests, solve)
    for f, target in zip(tests, targets):
        assert reference_per_term_exp(VectorField.apply, z, f) == target
    return z


def reference_is_symplectic(x, sdata):
    """`VectorField.is_symplectic` as first written: i(X)omega as scalars,
    then d_a alpha_b - d_b alpha_a compared with zero pair by pair."""
    alpha = series.combine(x.comps, sdata.omega_lo)
    return all((alpha[b].derivative(a) - alpha[a].derivative(b)).is_zero()
               for a in range(x.dim) for b in range(a + 1, x.dim))


def curve_text(values):
    """Bytes of a curve of values: `dumps` text of the Fourier modes of every
    scalar on the torus, and on R^(2n) the repr of every `Poly`, which shows
    the coefficient type."""
    scalars = [[v] if isinstance(v, SparseScalar) else list(v.comps) for v in values]
    if isinstance(scalars[0][0], Poly):
        return repr(scalars)
    return json_text([[scalar_to_json(f) for f in fs] for fs in scalars])


@pytest.mark.parametrize("kind, dim", [("torus", 4), ("torus", 6), ("euclidean", 4)])
def test_exp_and_merge_equal_the_per_term_table(kind, dim):
    """exp_apply, exp_ad and merge_exponentials against the per-term table,
    by value and by bytes, at caps 2 to 6; on the torus under the standard
    and a rational omega, on R^(2n) with `Fraction` coefficients."""
    rng = random.Random(f"per-term-{kind}-{dim}")
    omegas = [SymplecticData.standard(dim)] + ([rational_omega(dim)] if kind == "torus" else [])
    for sdata in omegas:
        for cap in range(2, 7):
            if kind == "torus":
                gens, other, fields = (random_torus_ladder(rng, sdata, cap) for _ in range(3))
                scalars = [random_real_scalar(rng, dim, max_modes=2, mode_bound=1)
                           for _ in range(cap + 1)]
            else:
                gens, other, fields = (random_poly_ladder(rng, cap) for _ in range(3))
                scalars = [g.comps[rng.randrange(dim)] for g in random_poly_ladder(rng, cap)]
            fields[0] = type(fields[0]).constant(dim, [rng.randint(-2, 2) for _ in range(dim)])
            scalars[0] = scalars[0] + type(scalars[0]).constant(dim, 1)
            for got, want in (
                (exp_apply(gens, scalars), reference_per_term_exp(VectorField.apply, gens, scalars)),
                (exp_ad(gens, fields), reference_per_term_exp(bracket, gens, fields)),
                (merge_exponentials(sdata, gens, other), reference_per_term_merge(sdata, gens, other)),
            ):
                assert got == want, (sdata.omega_lo, cap)
                assert curve_text(got) == curve_text(want)
            if kind == "euclidean":
                assert all(type(c) is Fraction for f in exp_apply(gens, scalars)
                           for c in f.coeffs.values())


def test_exp_terms_weights_each_power_by_one_over_j():
    """A single constant generator X = e_0 at order 1 on f = e^{i x^0}:
    Q_j[j] = X^j f / j! = i^j f / j!, so each 1/j weight shows in the table,
    and the bracket of a field with itself vanishes."""
    dim, cap = DIM, 6
    e0 = FourierVectorField.constant(dim, (1, 0, 0, 0))
    gens = [FourierVectorField.zero(dim), e0] + [FourierVectorField.zero(dim)] * (cap - 1)
    f = FourierScalar.single_mode(dim, (1, 0, 0, 0))
    q = series.exp_terms(VectorField.add_apply, gens, [[f] + [FourierScalar.zero(dim)] * cap])[0]
    coeff = GaussianRational(1)
    for j in range(1, cap + 1):
        coeff = coeff * GaussianRational(0, 1) * Fraction(1, j)
        assert q[j][j] == f.scale(coeff), j
        assert all(q[j][k].is_zero() for k in range(cap + 1) if k != j)
    x = hamiltonian_field(SD, FourierScalar.cosine(dim, (1, 1, 0, 0)))
    assert bracket(x, x).is_zero()
    assert bracket(x, e0) == -bracket(e0, x) and not bracket(x, e0).is_zero()


@pytest.mark.parametrize("sdata", [SD, SymplecticData.standard(6), rational_omega(4),
                                   rational_omega(6)], ids=["dim4", "dim6", "rational4",
                                                            "rational6"])
def test_is_symplectic_equals_the_scalar_reference(sdata):
    """Hamiltonian fields are symplectic, random real fields mostly not, and
    the verdict equals the reference's on both, on the torus and on R^(2n)."""
    rng = random.Random(f"symplectic-{sdata.omega_lo}")
    dim = sdata.dim
    verdicts = set()
    for _ in range(12):
        h = random_real_scalar(rng, dim, max_modes=2, mode_bound=1)
        noise = [random_real_scalar(rng, dim, max_modes=1, mode_bound=1) for _ in range(dim)]
        for x in (hamiltonian_field(sdata, h), FourierVectorField(noise)):
            assert x.is_symplectic(sdata) == reference_is_symplectic(x, sdata)
            verdicts.add(x.is_symplectic(sdata))
    if dim == DIM:
        for x in random_poly_ladder(rng, 4)[1:]:
            bent = PolyVectorField([x.comps[0] + poly({(0, 1, 0, 0): 1})] + list(x.comps[1:]))
            for y in (x, bent):
                assert y.is_symplectic(sdata) == reference_is_symplectic(y, sdata)
    assert verdicts == {True, False}
    assert FourierVectorField.zero(dim).is_symplectic(sdata)


def _fourier_apply_cases(rng):
    """(X, f) on T^4: random real fields and scalars with mixed
    denominators, a field with zero components and a constant scalar."""
    def scalar():
        return random_real_scalar(rng, DIM, max_modes=3, mode_bound=2, zero_mean=False)

    cases = [(FourierVectorField([scalar() for _ in range(DIM)]), scalar()) for _ in range(6)]
    sparse = FourierVectorField([scalar(), FourierScalar.zero(DIM), scalar(),
                                 FourierScalar.zero(DIM)])
    cases.append((sparse, scalar()))
    cases.append((sparse, FourierScalar.constant(DIM, Fraction(3, 7))))
    cases.append((FourierVectorField.zero(DIM), scalar()))
    return cases


def _poly_apply_cases():
    """(X, f) on R^4, with a zero component, a constant and the zero scalar."""
    gens, _, scalars, fields = euclidean_case()
    x = PolyVectorField([poly({(0, 1, 0, 0): Fraction(2, 3)}), Poly.zero(DIM),
                         poly({(1, 0, 0, 1): -1, (0, 0, 0, 0): Fraction(1, 4)}),
                         Poly.zero(DIM)])
    cubic = poly({(3, 0, 0, 0): Fraction(1, 3), (0, 1, 2, 0): Fraction(-5, 6)})
    cases = [(g, f) for g in gens[1:] + fields for f in scalars + [cubic]]
    return cases + [(x, cubic), (x, poly({(0, 0, 0, 0): Fraction(1, 2)}))]


@pytest.mark.parametrize("weight", [1, 2, Fraction(-3, 5)], ids=["1", "2", "-3/5"])
def test_add_apply_equals_the_sum_of_components_times_derivatives(weight):
    """acc[key] += weight X(f) through `derivative_terms` equals
    weight sum_a X^a df/dx^a built from `derivative` scalars, on the torus
    and on R^4, for a constant f, zero components and a weight other than
    1; a second call on the same key adds to the first."""
    from sympconn._kernel.pure import GaussianSums

    rng = random.Random(f"add-apply-{weight}")
    for x, f in _fourier_apply_cases(rng) + _poly_apply_cases():
        want = x.scalar.zero(DIM)
        for a, xa in enumerate(x.comps):
            want = want + xa * f.derivative(a)
        acc = GaussianSums()
        x.add_apply(acc, "k", f, weight)
        got = acc.finish(x.scalar, DIM).get("k") or x.scalar.zero(DIM)
        assert got == want.scale(weight), (x.comps, f)
        x.add_apply(acc, "k", f, weight)
        twice = acc.finish(x.scalar, DIM).get("k") or x.scalar.zero(DIM)
        assert twice == want.scale(2 * weight)
        assert x.apply(f) == want
