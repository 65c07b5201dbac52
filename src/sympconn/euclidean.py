"""The R^{2n} model: polynomial symplectomorphisms for invariant curves.

On R^{2n} (no periodicity) a valid structure map A gives the explicit
quadratic symplectomorphism psi^A(x) = x - (1/2) A(x) x, and a valid curve
A^t gives the flow psi_{A^t} = exp X_{A^t} with X_{A^t}(x) = -(1/2) A_t(x) x.
Nilpotency A(X) A(Y) = 0 keeps every series here finite, so all maps and
flows are exact polynomial objects.

Formal symplectomorphism curves of R^{2n} are represented as in the torus
module: an affine part sigma(x) = C x + d (C rational symplectic here, not
necessarily integral) composed with exp of a generator ladder, acting on
polynomials as operators.  The exponentials, brackets and normal ordering
are the truncated Lie-series calculus of `series`, applied to
`PolyVectorField`, whose test functions are the coordinates x^a.

A connection curve is d + Gamma_t, its Christoffel symbols held per order
in the form `series.exp_lie_connection` moves, as on the torus:
{(a, b, p): Poly} with nabla_{e_a} e_b = sum_p Gamma^p_ab e_p, nonzero
entries only.  The curves start at nabla^0: psi_{A^t} refuses a ladder
whose order-0 cube is nonzero, as `invariant.embed_invariant` does.
"""

from __future__ import annotations

from ._kernel.pure import GaussianSums
from .errors import (
    ConfigurationError,
    InternalInconsistency,
    PreconditionError,
)
from .invariant import StructureMapCurve, cube_rows, integral_cube
from .linalg import matrix
from .rationals import Fraction, exact_real
from .series import (
    SparseScalar,
    VectorField,
    coordinate_tests,
    exp_curves,
    exp_lie_connection,
    exp_terms,
    merge_exponentials,
)


class Poly(SparseScalar):
    """Polynomial in x^1..x^{2n}: exponent tuple -> Fraction coefficient."""

    __slots__ = ()

    coeff_type = Fraction

    @classmethod
    def variable(cls, dim, a):
        if type(a) is not int or not 0 <= a < dim:
            raise ConfigurationError(f"variable index {a!r} is not an axis of R^{dim}")
        e = tuple(1 if i == a else 0 for i in range(dim))
        return cls(dim, {e: Fraction(1)}, _validated=True)

    def derivative(self, axis):
        return Poly(self.dim, {e: Fraction(num, den)
                               for e, num, _, den in self.derivative_terms(axis)},
                    _validated=True)

    def derivative_terms(self, axis):
        """The terms (e - e_axis, num e_axis, 0, den) of d/dx^axis, one per
        monomial num / den x^e with e_axis > 0, unreduced."""
        return [(e[:axis] + (k - 1,) + e[axis + 1:], c.numerator * k, 0, c.denominator)
                for e, c in self.coeffs.items() if (k := e[axis])]

    def second_derivative_terms(self, a, b):
        """The terms (e - e_a - e_b, num k, 0, den) of d/dx^a d/dx^b, one per
        monomial num / den x^e with k = e_b (e - e_b)_a > 0, unreduced."""
        out = []
        for e, c in self.coeffs.items():
            if k := e[b] * (e[a] - (a == b)):
                lowered = list(e)
                lowered[a] -= 1
                lowered[b] -= 1
                out.append((tuple(lowered), c.numerator * k, 0, c.denominator))
        return out

    def degree(self):
        return max((sum(e) for e in self.coeffs), default=0)

    def is_real(self):
        """Always true: the coefficients are rational."""
        return True

    def __repr__(self):
        return f"Poly({self.dim}, {dict(sorted(self.coeffs.items()))})"


class PolyVectorField(VectorField):
    """Polynomial vector field; acts on Poly as a derivation.

    Its test functions are the coordinates x^a, which generate the
    polynomial algebra; a field Z maps x^a to Z^a.
    """

    __slots__ = ()

    scalar = Poly

    @staticmethod
    def test_function(dim, a):
        return Poly.variable(dim, a)

    @staticmethod
    def component_from_mismatch(dim, a, diff):
        return diff


# -- the closed-form symplectomorphism psi^A ------------------------------------


def require_nilpotent_cube(sdata, cube):
    """Refuse a cube that is not fully symmetric or whose A(e_a) A(e_b) is
    nonzero for some basis pair (a, b), the first in lexicographic order.

    Returns the ladder (0, A, 0): its order-2 product table is the table of
    the A(e_a) A(e_b), so it is empty here.  A cube of the wrong shape is
    refused by `integral_cube`, before the symmetry check."""
    order = integral_cube(sdata.dim, cube)
    try:
        ladder = StructureMapCurve.from_orders(sdata, 2, [(1, {}), order, (1, {})])
    except ConfigurationError:
        raise PreconditionError("cube is not fully symmetric") from None
    table = ladder.products(2)
    if table:
        a, b = min(table)
        raise PreconditionError(f"A(e_{a}) A(e_{b}) != 0: cube is not nilpotent")
    return ladder


def psi_A_symplectic_check(sdata, cube):
    """Omega(psi^A . e_a, psi^A . e_b) = omega_ab on the constant basis.

    psi^A . X = X - A(.)X for a constant X (valid by nilpotency), so
    component p of psi^A . e_a is delta_pa - sum_c (A(e_c))^p_a x^c, read as
    a coefficient map from the sparse int rows of the A(e_c) (`cube_rows`),
    each divided by the row denominator as it becomes a coefficient.
    Every pairing sum_pq omega_pq (psi . e_a)^p (psi . e_b)^q - omega_ab with
    a < b goes into one `GaussianSums`, asked once whether all vanish.  The
    pairs a < b suffice: the products commute and omega is antisymmetric,
    so the (b, a) pairing is minus the (a, b) one, and the (a, a) pairing is
    0 = omega_aa."""
    dim = sdata.dim
    den, rows = cube_rows(sdata, integral_cube(dim, cube))
    origin = (0,) * dim
    units = [tuple(int(i == c) for i in range(dim)) for c in range(dim)]
    # pushed[a][p] is the coefficient map of (psi^A . e_a)^p
    one = {origin: Fraction(1)}
    pushed = [[dict(one) if p == a else {} for p in range(dim)] for a in range(dim)]
    for c, r in enumerate(rows):
        for p, row in r.items():
            for a, v in row.items():
                pushed[a][p][units[c]] = Fraction(-v, den)
    lo, _ = sdata.index_map(upper=False)
    omega = sdata.omega_lo
    acc = GaussianSums()
    for a in range(dim):
        xa = pushed[a]
        for b in range(a + 1, dim):
            yb = pushed[b]
            for p, terms in enumerate(lo):
                if xa[p]:
                    for q, w in terms:
                        if yb[q]:
                            acc.add_product((a, b), xa[p], yb[q], weight=w)
            if omega[a][b]:
                acc.add((a, b), one, weight=-omega[a][b])
    return acc.all_zero()


def psi_A_connection_check(sdata, cube):
    """psi^A . nabla^0 = nabla^A, as `psi_At_connection_check` of the ladder
    (0, A, 0) at cap 2.

    Order 2 of exp(t X_A) on the coordinates is X_A(X_A(x)) / 2, and every
    higher term of the flow or of the connection's Lie series is L_X or X
    applied to an order-2 term.  Once it vanishes, psi^A = x + X_A(x) is
    exp X_A at t = 1 and the truncated sums are exact there."""
    ladder = require_nilpotent_cube(sdata, cube)
    gens = psi_At(ladder)
    flow = exp_curves(VectorField.add_apply, gens, coordinate_tests(PolyVectorField, sdata.dim, 2))
    if not all(coordinate[2].is_zero() for coordinate in flow):
        raise InternalInconsistency("exp X_A has a nonzero order-2 term on the coordinates")
    return psi_At_connection_check(ladder, gens)


# -- the flow psi_{A^t} ----------------------------------------------------------


def _rows_field(dim, order_rows):
    """X_A(x) = -(1/2) A(x) x, a quadratic polynomial field, from the sparse
    int rows of the A(e_a) over their denominator den (`invariant.cube_rows`):
    each coefficient is summed in ints and divided by -2 den once."""
    den, matrices = order_rows
    quads = [{} for _ in range(dim)]
    for a, rows in enumerate(matrices):
        for p, row in rows.items():
            quad = quads[p]
            for b, v in row.items():
                e = [0] * dim
                e[a] += 1
                e[b] += 1
                e = tuple(e)
                quad[e] = quad.get(e, 0) + v
    den *= -2
    return PolyVectorField([Poly(dim, {e: Fraction(v, den) for e, v in quad.items() if v},
                                 _validated=True) for quad in quads])


def psi_At(b_curve: StructureMapCurve):
    """The generator ladder of psi_{A^t} = exp X_{A^t}.

    Returns gens[0..K] with gens[k] = X_{A^(k)}, gens[0] = 0.  A nonzero
    order-0 cube is refused first: the curves start at nabla^0, and the
    Lie series assume a generator ladder of valuation >= 1.  Validity
    (order-by-order nilpotency; symmetry holds by construction) is checked
    next.
    """
    if b_curve.orders[0][1]:
        raise PreconditionError("psi_{A^t} requires a zero order-0 cube")
    validity_check_cubes(b_curve)
    return [_rows_field(b_curve.dim, b_curve.rows(k)) for k in range(b_curve.cap + 1)]


def validity_check_cubes(b_curve: StructureMapCurve):
    """A^t(X) A^t(Y) = 0 order by order (symmetry holds by construction)."""
    for k in range(b_curve.cap + 1):
        table = b_curve.products(k)
        if table:
            a, b = min(table)
            raise PreconditionError(
                f"A^t(X) A^t(Y) != 0 at order {k}, pair ({a}, {b})"
            )


def act_on_poly_connection(gens, gamma):
    """The flow of X_t acting on the Christoffel symbols gamma of a
    connection curve on R^{2n}, in the form of `series.exp_lie_connection`.

    Geometric pushforward convention: for the map psi = exp-flow of X_t,
    psi . Y = exp(ad(-X_t)) Y (so that psi^A . X = X - A(.)X holds as
    stated), hence psi . nabla = exp(L_{-X_t}) nabla."""
    return exp_lie_connection([-g for g in gens], gamma)


def invariant_gamma(b_curve: StructureMapCurve):
    """The Christoffel symbols of nabla^{A^t}: per order {(a, b, p): Poly}
    with the constant Gamma^p_ab = (A(e_a))^p_b, read from the nonzero int
    entries of `b_curve.rows(k)`, each divided by the row denominator."""
    dim = b_curve.dim
    origin = (0,) * dim
    out = []
    for k in range(b_curve.cap + 1):
        den, matrices = b_curve.rows(k)
        out.append({(a, b, p): Poly(dim, {origin: Fraction(v, den)}, _validated=True)
                    for a, rows in enumerate(matrices)
                    for p, row in rows.items() for b, v in row.items()})
    return out


def psi_At_connection_check(b_curve: StructureMapCurve, gens=None):
    """psi_{A^t} . nabla^0 = nabla^{A^t}, plus (ad X_{A^t})^2 X = 0 on the
    constant basis (the nilpotency the closed forms rely on), read as the
    `exp_terms` term Q_2 = (ad X_t)^2 e / 2, zero by valuation below cap 2.
    gens is `psi_At(b_curve)`, built here unless the caller has it."""
    if gens is None:
        gens = psi_At(b_curve)
    cap, dim = b_curve.cap, b_curve.dim
    zero = PolyVectorField.zero(dim)
    basis = [[PolyVectorField.constant(dim, [int(i == a) for i in range(dim)])] + [zero] * cap
             for a in range(dim)]
    for q in exp_terms(VectorField.add_bracket, gens, basis):
        if cap >= 2 and not all(f.is_zero() for f in q[2]):
            raise InternalInconsistency("(ad X_{A^t})^2 != 0 on a constant field")
    return act_on_poly_connection(gens, [{}] * (cap + 1)) == invariant_gamma(b_curve)


def equivalence_Rn(a_curve: StructureMapCurve, b_curve: StructureMapCurve):
    """The always-equivalent construction psi = psi_{B^t} o psi_{-A^t}.

    Returns the merged generator ladder and verifies
    psi . nabla^{A^t} = nabla^{B^t} through the cap.
    """
    if a_curve.sdata != b_curve.sdata or a_curve.cap != b_curve.cap:
        raise PreconditionError("equivalence needs matching omega and caps")
    # Pullbacks compose contravariantly: the map psi_{B^t} o psi_{-A^t} has
    # pullback exp(-X_{A^t}) exp(X_{B^t}), which is what gets merged.
    neg_a = [-g for g in psi_At(a_curve)]
    merged = merge_exponentials(a_curve.sdata, neg_a, psi_At(b_curve))
    if act_on_poly_connection(merged, invariant_gamma(a_curve)) != invariant_gamma(b_curve):
        raise InternalInconsistency(
            "psi_{B^t} o psi_{-A^t} does not carry nabla^{A^t} to nabla^{B^t}"
        )
    return merged


# -- the stabilizer of nabla^0 ----------------------------------------------------


class PolySymplecto:
    """A formal R^{2n} symplectomorphism curve sigma^* o exp X_t with a
    rational (not necessarily integral) symplectic linear part."""

    __slots__ = ("sdata", "cap", "c_mat", "d", "gens")

    def __init__(self, sdata, cap, c_mat, d, gens):
        dim = sdata.dim
        c_mat = matrix(c_mat)
        d = tuple(Fraction(exact_real(x, "translation entry", a)) for a, x in enumerate(d))
        if len(d) != dim:
            raise ConfigurationError(f"translation needs {dim} entries")
        gens = list(gens)
        if len(gens) == cap:
            gens = [PolyVectorField.zero(dim)] + gens
        if len(gens) != cap + 1:
            raise ConfigurationError("need one generator per order 1..K")
        if not sdata.is_symplectic_matrix(c_mat):
            raise ConfigurationError("linear part is not symplectic")
        if not gens[0].is_zero():
            raise ConfigurationError("generator curve must have valuation >= 1")
        for k, g in enumerate(gens):
            if not g.is_symplectic(sdata):
                raise ConfigurationError(f"order-{k} generator is not symplectic")
        self.sdata = sdata
        self.cap = cap
        self.c_mat = c_mat
        self.d = d
        self.gens = gens

    @property
    def dim(self):
        return self.sdata.dim


def stabilizer_check(psi: PolySymplecto):
    """Decide psi . nabla^0 = nabla^0 and extract the affine normal form.

    Returns ("stabilizes", (C, d, C_t, d_t)) with C_t the per-order matrices
    and d_t the per-order vectors of the (necessarily affine) generators, or
    ("moves", first_failing_order).  A stabilizing curve with a non-affine
    generator would contradict the normal-form statement, so that case is an
    internal inconsistency, not a verdict.
    """
    cap, dim = psi.cap, psi.dim
    # The affine part always fixes nabla^0; only the exp factor can move it.
    acted = act_on_poly_connection(psi.gens, [{}] * (cap + 1))
    for k in range(cap + 1):
        if acted[k]:
            return ("moves", k)
    c_t, d_t = [], []
    for k in range(1, cap + 1):
        comps = psi.gens[k].comps
        if any(c.degree() > 1 for c in comps):
            raise InternalInconsistency(
                f"order-{k} generator of a stabilizing curve is not affine")
        c_t.append(tuple(tuple(c.derivative(q).constant_part() for q in range(dim))
                         for c in comps))
        d_t.append(tuple(c.constant_part() for c in comps))
    return ("stabilizes", (psi.c_mat, psi.d, c_t, d_t))
