"""Laws of the truncated Lie-series calculus, on the torus and on R^(2n)."""

from fractions import Fraction

import pytest

import sympconn.euclidean as euclidean
from sympconn.euclidean import Poly, PolyVectorField
from sympconn.fourier import FourierScalar, SymplecticData
from sympconn.series import SparseScalar, exp_ad, exp_apply, merge_exponentials
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
