"""Laws of the truncated Lie-series calculus, on the torus and on R^(2n)."""

import random
from fractions import Fraction

import pytest

import sympconn.euclidean as euclidean
import sympconn.series as series
from sympconn.errors import InternalInconsistency
from sympconn.euclidean import Poly, PolyVectorField
from sympconn.fourier import FourierScalar, SymplecticData
from sympconn.generate import random_real_scalar
from sympconn.series import (
    SparseScalar,
    VectorField,
    coordinate_tests,
    exp_ad,
    exp_apply,
    merge_exponentials,
    order_from_mismatch,
)
from sympconn.symplecto import FourierVectorField, hamiltonian_field

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
        assert x.derive(y) == field([x.apply(c) for c in y.comps])
        assert x.bracket(y) == field(
            [x.apply(yc) - y.apply(xc) for xc, yc in zip(x.comps, y.comps)]
        )
        for f in scalars:
            assert x.bracket(y).apply(f) == x.apply(y.apply(f)) - y.apply(x.apply(f))


def test_field_types_do_not_compare_equal():
    assert FourierVectorField.zero(DIM) != PolyVectorField.zero(DIM)
    assert FourierVectorField.zero(DIM) == FourierVectorField.constant(DIM, (0, 0, 0, 0))


def test_scalar_types_share_one_sparse_arithmetic():
    """Poly and FourierScalar inherit their arithmetic from SparseScalar, and
    the R^(2n) model binds no dense copy of the cube algebra."""
    shared = ("__init__", "__add__", "__sub__", "__neg__", "__mul__", "__rmul__",
              "scale", "zero", "constant", "is_zero", "__bool__", "is_constant",
              "constant_part", "__eq__", "__hash__")
    for cls in (Poly, FourierScalar):
        assert cls.__bases__ == (SparseScalar,)
        assert not set(shared) & set(vars(cls))
    for name in ("mat_mul", "cube_endomorphisms"):
        assert not hasattr(euclidean, name)


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


@pytest.mark.parametrize("case", [torus_case, euclidean_case], ids=["torus", "euclidean"])
def test_merge_makes_three_exp_apply_calls_per_coordinate(case, monkeypatch):
    """2 dim exp_apply calls for the targets and dim for the verification,
    whatever the cap: the orders in between re-expand nothing."""
    calls = []

    def counting(gens, fcurve):
        calls.append(len(gens))
        return exp_apply(gens, fcurve)

    monkeypatch.setattr(series, "exp_apply", counting)
    gens, other, _, _ = case()
    for cap in range(1, len(gens)):
        calls.clear()
        merge_exponentials(SD, gens[:cap + 1], other[:cap + 1])
        assert calls == [cap + 1] * (3 * DIM)


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
        assert exp_ad(gens, fields) == reference_exp(VectorField.bracket, gens, fields)


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
