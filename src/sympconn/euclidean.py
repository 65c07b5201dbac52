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
"""

from __future__ import annotations

from itertools import product

from .errors import (
    ConfigurationError,
    InternalInconsistency,
    PreconditionError,
)
from .invariant import (
    StructureMapCurve,
    add_rows_product,
    cube_is_symmetric,
    cube_matrices,
    cube_rows,
)
from .rationals import Fraction
from .series import (
    SparseScalar,
    VectorField,
    exp_apply,
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
        e = tuple(1 if i == a else 0 for i in range(dim))
        return cls(dim, {e: Fraction(1)}, _validated=True)

    def derivative(self, axis):
        out = {}
        for e, c in self.coeffs.items():
            k = e[axis]
            if k:
                out[tuple(x - 1 if i == axis else x for i, x in enumerate(e))] = c * k
        return Poly(self.dim, out, _validated=True)

    def substitute(self, maps):
        """Evaluate at x^a = maps[a] (a list of Polys)."""
        if len(maps) != self.dim:
            raise ConfigurationError("substitution needs one polynomial per variable")
        out = Poly.zero(self.dim)
        for e, c in self.coeffs.items():
            term = Poly.constant(self.dim, c)
            for a, k in enumerate(e):
                for _ in range(k):
                    term = term * maps[a]
            out = out + term
        return out

    def degree(self):
        return max((sum(e) for e in self.coeffs), default=0)

    def is_real(self):
        """Always true: the coefficients are rational."""
        return True

    def __repr__(self):
        return f"Poly({self.dim}, {dict(sorted(self.coeffs.items()))})"


class PolyMap:
    """A polynomial map R^{2n} -> R^{2n}; composition tracks degrees exactly."""

    __slots__ = ("dim", "comps")

    def __init__(self, comps):
        comps = tuple(comps)
        dim = comps[0].dim
        if len(comps) != dim or any(c.dim != dim for c in comps):
            raise ConfigurationError("map needs one component per coordinate")
        self.dim = dim
        self.comps = comps

    @classmethod
    def identity(cls, dim):
        return cls([Poly.variable(dim, a) for a in range(dim)])

    def compose(self, other: "PolyMap") -> "PolyMap":
        """self o other."""
        return PolyMap([c.substitute(list(other.comps)) for c in self.comps])

    def is_identity(self):
        return self == PolyMap.identity(self.dim)

    def __eq__(self, other):
        if not isinstance(other, PolyMap):
            return NotImplemented
        return self.comps == other.comps

    def __repr__(self):
        return f"PolyMap(dim={self.dim}, deg={max(c.degree() for c in self.comps)})"


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
    nonzero for some basis pair (a, b), the first in lexicographic order."""
    if not cube_is_symmetric(cube):
        raise PreconditionError("cube is not fully symmetric")
    rows = cube_rows(sdata, cube)
    for a, b in product(range(sdata.dim), repeat=2):
        acc = {}
        add_rows_product(acc, rows[a], rows[b])
        if any(acc.values()):
            raise PreconditionError(f"A(e_{a}) A(e_{b}) != 0: cube is not nilpotent")


def psi_A(sdata, cube) -> PolyMap:
    """psi^A(x) = x - (1/2) A(x) x = x + X_A(x) for a nilpotent symmetric cube."""
    require_nilpotent_cube(sdata, cube)
    field = structure_field(sdata, cube)
    return PolyMap([Poly.variable(sdata.dim, p) + c for p, c in enumerate(field.comps)])


def psi_A_pushforward_constant(sdata, cube, x):
    """psi^A . X = X - A(.)X for a constant vector X (valid by nilpotency)."""
    return _pushforward_constant(cube_rows(sdata, cube), x)


def _pushforward_constant(rows, x):
    """psi^A . X from the sparse rows of the A(e_a) (`invariant.cube_rows`)."""
    dim = len(rows)
    x = tuple(Fraction(v) for v in x)
    comps = []
    for p in range(dim):
        poly = Poly.constant(dim, x[p])
        lin = {}
        for a in range(dim):
            v = sum(w * x[b] for b, w in rows[a].get(p, {}).items())
            if v:
                e = tuple(1 if i == a else 0 for i in range(dim))
                lin[e] = -v
        comps.append(poly + Poly(dim, lin))
    return PolyVectorField(comps)


def psi_A_symplectic_check(sdata, cube):
    """Omega(psi^A . X, psi^A . Y) = Omega(X, Y) on the constant basis."""
    dim = sdata.dim
    lo = sdata.omega_lo
    rows = cube_rows(sdata, cube)
    pushed = [
        _pushforward_constant(rows, [1 if i == a else 0 for i in range(dim)])
        for a in range(dim)
    ]
    for a, xa in enumerate(pushed):
        for b, yb in enumerate(pushed):
            pairing = Poly.zero(dim)
            for p in range(dim):
                for q in range(dim):
                    if lo[p][q]:
                        pairing = pairing + (xa.comps[p] * yb.comps[q]).scale(lo[p][q])
            if pairing != Poly.constant(dim, lo[a][b]):
                return False
    return True


def pushforward(psi: PolyMap, psi_inv: PolyMap, z: PolyVectorField) -> PolyVectorField:
    """(psi . Z)(x) = D psi(psi^{-1} x) Z(psi^{-1} x); the caller supplies the
    exact polynomial inverse (psi^{-A} for psi^A)."""
    dim = z.dim
    inv_comps = list(psi_inv.comps)
    comps = []
    for p in range(dim):
        acc = Poly.zero(dim)
        for b in range(dim):
            dpb = psi.comps[p].derivative(b)
            if dpb.is_zero() or z.comps[b].is_zero():
                continue
            acc = acc + dpb.substitute(inv_comps) * z.comps[b].substitute(inv_comps)
        comps.append(acc)
    return PolyVectorField(comps)


def psi_A_connection_check(sdata, cube):
    """psi^A . nabla^0 = nabla^A on basis pairs, via exact transport through
    the polynomial inverse psi^{-A}."""
    dim = sdata.dim
    mats = cube_matrices(sdata, cube)
    fwd = psi_A(sdata, cube)
    bwd = psi_A(sdata, [[[-Fraction(cube[a][b][c]) for c in range(dim)] for b in range(dim)] for a in range(dim)])
    if not fwd.compose(bwd).is_identity() or not bwd.compose(fwd).is_identity():
        raise InternalInconsistency("psi^{-A} is not the inverse of psi^A")
    basis = [PolyVectorField.constant(dim, [1 if i == a else 0 for i in range(dim)])
             for a in range(dim)]
    pushed = [pushforward(bwd, fwd, e) for e in basis]
    for a, xa in enumerate(pushed):
        for b, yb in enumerate(pushed):
            # nabla^0_{X} Y = directional derivative
            deriv = xa.derive(yb)
            moved = pushforward(fwd, bwd, deriv)
            want = PolyVectorField.constant(dim, [mats[a][p][b] for p in range(dim)])
            if moved != want:
                return False
    return True


# -- the flow psi_{A^t} ----------------------------------------------------------


def structure_field(sdata, cube) -> PolyVectorField:
    """X_A(x) = -(1/2) A(x) x as a quadratic polynomial field."""
    dim = sdata.dim
    half = Fraction(1, 2)
    quads = [{} for _ in range(dim)]
    for a, rows in enumerate(cube_rows(sdata, cube)):
        for p, row in rows.items():
            quad = quads[p]
            for b, v in row.items():
                e = [0] * dim
                e[a] += 1
                e[b] += 1
                e = tuple(e)
                quad[e] = quad.get(e, 0) - half * v
    return PolyVectorField([Poly(dim, quad) for quad in quads])


def psi_At(b_curve: StructureMapCurve):
    """The generator ladder of psi_{A^t} = exp X_{A^t}.

    Returns gens[0..K] with gens[k] = X_{A^(k)}; validity (symmetry and
    order-by-order nilpotency) is checked first.
    """
    validity_check_cubes(b_curve)
    return [structure_field(b_curve.sdata, c) for c in b_curve.cubes]


def validity_check_cubes(b_curve: StructureMapCurve):
    """A^t(X) A^t(Y) = 0 order by order (symmetry holds by construction)."""
    for k in range(b_curve.cap + 1):
        table = b_curve.products(k)
        if table:
            a, b = min(table)
            raise PreconditionError(
                f"A^t(X) A^t(Y) != 0 at order {k}, pair ({a}, {b})"
            )


def flow_coordinate_maps(gens, cap):
    """The formal flow as a curve of PolyMaps: order-k coefficient of
    exp(X_t) applied to the coordinate functions."""
    dim = gens[0].dim
    curves = [
        exp_apply(gens, [Poly.variable(dim, p)] + [Poly.zero(dim)] * cap)
        for p in range(dim)
    ]
    return [PolyMap([curves[p][k] for p in range(dim)]) for k in range(cap + 1)]


def act_on_poly_connection(gens, cap, sdata, gamma):
    """The flow of X_t acting on a connection curve on R^{2n}.

    Geometric pushforward convention: for the map psi = exp-flow of X_t,
    psi . Y = exp(ad(-X_t)) Y (so that psi^A . X = X - A(.)X holds as
    stated), hence psi . nabla = exp(L_{-X_t}) nabla, computed by
    `series.exp_lie_connection`.  gamma[k][(a, b)] is the PolyVectorField
    nabla^(k)_{e_a} e_b (order 0 omitted, i.e. treated as the flat
    directional derivative); the result has the same shape."""
    dim = sdata.dim
    symbols = [{}] + [
        {
            (a, b, p): c
            for (a, b), field in order.items()
            for p, c in enumerate(field.comps)
            if not c.is_zero()
        }
        for order in gamma[1 : cap + 1]
    ]
    moved = exp_lie_connection([-g for g in gens], symbols)
    zero = Poly.zero(dim)
    out = []
    for order in moved:
        fields = {}
        for a, b in product(range(dim), repeat=2):
            field = PolyVectorField([order.get((a, b, p), zero) for p in range(dim)])
            if not field.is_zero():
                fields[(a, b)] = field
        out.append(fields)
    return out


def invariant_gamma(b_curve: StructureMapCurve):
    """The connection data of nabla^{A^t}: constant Gamma(e_a, e_b) = A(e_a) e_b."""
    dim = b_curve.dim
    out = [dict() for _ in range(b_curve.cap + 1)]
    for k in range(b_curve.cap + 1):
        mats = b_curve.matrices(k)
        for a in range(dim):
            for b in range(dim):
                col = [mats[a][p][b] for p in range(dim)]
                if any(col):
                    out[k][(a, b)] = PolyVectorField.constant(dim, col)
    return out


def psi_At_connection_check(b_curve: StructureMapCurve):
    """psi_{A^t} . nabla^0 = nabla^{A^t}, plus (ad X_{A^t})^2 X = 0 on the
    constant basis (the nilpotency the closed forms rely on), read as the
    `exp_terms` term Q_2 = (ad X_t)^2 e / 2, zero by valuation below cap 2."""
    gens = psi_At(b_curve)
    cap, dim, sdata = b_curve.cap, b_curve.dim, b_curve.sdata
    zero = PolyVectorField.zero(dim)
    for a in range(dim):
        e = PolyVectorField.constant(dim, [1 if i == a else 0 for i in range(dim)])
        q = exp_terms(VectorField.bracket, gens, [[e] + [zero] * cap])[0]
        if cap >= 2 and not all(f.is_zero() for f in q[2]):
            raise InternalInconsistency("(ad X_{A^t})^2 != 0 on a constant field")
    acted = act_on_poly_connection(gens, cap, sdata, [dict() for _ in range(cap + 1)])
    want = invariant_gamma(b_curve)
    return acted == want


def equivalence_Rn(a_curve: StructureMapCurve, b_curve: StructureMapCurve):
    """The always-equivalent construction psi = psi_{B^t} o psi_{-A^t}.

    Returns the merged generator ladder and verifies
    psi . nabla^{A^t} = nabla^{B^t} through the cap.
    """
    if a_curve.sdata != b_curve.sdata or a_curve.cap != b_curve.cap:
        raise PreconditionError("equivalence needs matching omega and caps")
    sdata, cap = a_curve.sdata, a_curve.cap
    gens_a = psi_At(a_curve)
    gens_b = psi_At(b_curve)
    neg_a = [-g for g in gens_a]
    # Pullbacks compose contravariantly: the map psi_{B^t} o psi_{-A^t} has
    # pullback exp(-X_{A^t}) exp(X_{B^t}), which is what gets merged.
    merged = merge_exponentials(sdata, neg_a, gens_b)
    acted = act_on_poly_connection(merged, cap, sdata, invariant_gamma(a_curve))
    if acted != invariant_gamma(b_curve):
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
        c_mat = tuple(tuple(Fraction(x) for x in row) for row in c_mat)
        d = tuple(Fraction(x) for x in d)
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
    sdata, cap, dim = psi.sdata, psi.cap, psi.dim
    # The affine part always fixes nabla^0; only the exp factor can move it.
    acted = act_on_poly_connection(psi.gens, cap, sdata, [dict() for _ in range(cap + 1)])
    for k in range(cap + 1):
        if acted[k]:
            return ("moves", k)
    c_t = [None]
    d_t = [None]
    for k in range(1, cap + 1):
        g = psi.gens[k]
        if any(c.degree() > 1 for c in g.comps):
            raise InternalInconsistency(
                f"order-{k} generator of a stabilizing curve is not affine"
            )
        mat = tuple(
            tuple(g.comps[p].derivative(q).constant_part() for q in range(dim))
            for p in range(dim)
        )
        vec = tuple(g.comps[p].constant_part() for p in range(dim))
        c_t.append(mat)
        d_t.append(vec)
    return ("stabilizes", (psi.c_mat, psi.d, c_t[1:], d_t[1:]))
