"""Formal curves of symplectomorphisms of the torus.

A curve is stored in the normal form psi_t = sigma^* o exp X_t, where
sigma(x) = C x + 2 pi d is an affine symplectic lattice map and
X_t = sum_{k>=1} t^k X^(k) is a formal curve of symplectic vector fields.
All operators act on scalar curves; actions on vector fields and
connections are operator conjugation, so functoriality
act(psi o phi, T) = act(psi, act(phi, T)) holds by construction.  The
exponentials, brackets and normal ordering are the truncated Lie-series
calculus of `series`, applied to `FourierVectorField`, whose test functions
are the characters e^{i x^a}.

Translations are rational fractions of the full period.  A pullback is
representable exactly iff every phase e^{2 pi i m.d} lands in the Gaussian
rationals, i.e. m.d is a multiple of 1/4; other translations raise
NonRepresentablePhase.
"""

from __future__ import annotations

from functools import cache

from ._kernel.pure import GaussianSums
from .curvature import ConnectionCurve
from .errors import (
    ConfigurationError,
    InternalInconsistency,
    NonRepresentablePhase,
    PreconditionError,
)
from .fourier import FourierScalar, SymplecticData, TensorField, lower_last
from .linalg import mat_vec, transpose
from .rationals import Fraction, GaussianRational, exact_real
from .series import (
    VectorField,
    combine,
    exp_lie_connection,
    merge_exponentials,
)

_MINUS_I = GaussianRational(0, -1)
_PHASES = {
    Fraction(0): GaussianRational(1),
    Fraction(1, 4): GaussianRational(0, 1),
    Fraction(1, 2): GaussianRational(-1),
    Fraction(3, 4): GaussianRational(0, -1),
}


def _phase(q: Fraction) -> GaussianRational:
    ph = _PHASES.get(q % 1)
    if ph is None:
        raise NonRepresentablePhase(
            f"phase e^(2 pi i {q}) is not a Gaussian rational; "
            "translations must keep m.d in (1/4)Z"
        )
    return ph


class FourierVectorField(VectorField):
    """Vector field with FourierScalar components.

    Its test functions are e^{i x^a}.  Two truncated algebra automorphisms
    that agree on them agree, by conjugation, on e^{-i x^a} and hence on
    every trigonometric polynomial.  A field Z maps e^{i x^a} to
    i Z^a e^{i x^a}, so Z^a = -i e^{-i x^a} Z(e^{i x^a}).
    """

    __slots__ = ()

    scalar = FourierScalar

    @staticmethod
    def test_function(dim, a):
        return FourierScalar.single_mode(dim, tuple(1 if i == a else 0 for i in range(dim)))

    @staticmethod
    def component_from_mismatch(dim, a, diff):
        return diff.shift_mode(tuple(-1 if i == a else 0 for i in range(dim))).scale(_MINUS_I)


def hamiltonian_field(sdata: SymplecticData, f: FourierScalar) -> FourierVectorField:
    """Solve i(X_f) omega = df: X_f^c = sum_b omega^{bc} df/dx^b.

    The solution is re-substituted into the defining equation; a mismatch
    would mean omega_hi is not the inverse convention assumed here.
    """
    df = [f.derivative(b) for b in range(f.dim)]
    x = FourierVectorField(combine(df, sdata.omega_hi))
    for b, contr in enumerate(x.interior_omega(sdata)):
        if contr != df[b]:
            raise InternalInconsistency("i(X_f) omega != df after solving")
    return x


# -- affine layer -------------------------------------------------------------


def affine_pullback_scalar(c_mat, d, f: FourierScalar) -> FourierScalar:
    """sigma^* f = f o sigma for sigma(x) = C x + 2 pi d: the mode m term
    becomes the mode C^T m term times the phase e^{2 pi i m.d}.  m -> C^T m
    is a bijection and a phase is a unit, so no two terms meet and none is
    zero."""
    dim = f.dim
    return FourierScalar(dim, {
        tuple(sum(c_mat[i][j] * m[i] for i in range(dim)) for j in range(dim)):
            coeff * _phase(Fraction(sum(mi * di for mi, di in zip(m, d))))
        for m, coeff in f.coeffs.items()
    }, _validated=True)


def conj_affine(c_mat, c_inv, d, x: FourierVectorField) -> FourierVectorField:
    """sigma^* X (sigma^*)^{-1} as a derivation:
    (Ad_{sigma^*} X)^b(x) = (C^{-1})^b_a X^a(C x + 2 pi d)."""
    pulled = [affine_pullback_scalar(c_mat, d, comp) for comp in x.comps]
    return FourierVectorField(combine(pulled, transpose(c_inv)))


def affine_pullback_tensor(c_mat, d, t: TensorField) -> TensorField:
    """sigma^* T for a covariant tensor:
    (sigma^* T)_{a1..ar}(x) = sum C^{b1}_{a1} .. C^{br}_{ar} T_{b1..br}(C x + 2 pi d)."""
    dim = t.dim
    rows = [[(a, c) for a, c in enumerate(row) if c] for row in c_mat]
    acc = GaussianSums()
    for idx, f in t.components.items():
        g = affine_pullback_scalar(c_mat, d, f).coeffs
        terms = [((), 1)]
        for b in idx:
            terms = [(new + (a,), w * c) for new, w in terms for a, c in rows[b]]
        for new, w in terms:
            acc.add(new, g, weight=w)
    return TensorField(dim, t.rank, acc.finish(FourierScalar, dim), _validated=True)


# -- the curve type ------------------------------------------------------------


@cache
def _eye(dim):
    """The dim x dim identity in ints, the form `SymplectoCurve.c_mat` keeps,
    built once per dim."""
    return tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim))


@cache
def _origin(dim):
    """The zero translation, dim Fraction zeros, built once per dim; an
    all-zero d is kept as this tuple."""
    return (Fraction(0),) * dim


class SymplectoCurve:
    """psi_t = sigma^* o exp X_t with sigma(x) = C x + 2 pi d.  validate=False
    trusts the caller: C is in Sp(2n, Z) and every generator real symplectic."""

    __slots__ = ("sdata", "cap", "c_mat", "c_inv", "d", "gens")

    def __init__(self, sdata: SymplecticData, cap, c_mat, d, gens, validate=True):
        dim = sdata.dim
        if validate:
            if len(c_mat) != dim or any(len(row) != dim for row in c_mat) or len(d) != dim:
                raise ConfigurationError("affine part has the wrong dimension")
            # a Gaussian rational is left to the gate below, which names it
            if any(type(x) is not GaussianRational and Fraction(x).denominator != 1
                   for row in c_mat for x in row):
                raise ConfigurationError("linear part is not integral")
            for i, row in enumerate(c_mat):
                for j, x in enumerate(row):
                    exact_real(x, "linear part entry", (i, j))
            for a, x in enumerate(d):
                exact_real(x, "translation entry", a)
        c_mat = tuple(tuple(int(x) for x in row) for row in c_mat)
        d = tuple(d)
        if d != _origin(dim):
            d = tuple(Fraction(x) % 1 for x in d)
        gens = list(gens)
        if len(gens) == cap:
            gens = [FourierVectorField.zero(dim)] + gens
        if len(gens) != cap + 1:
            raise ConfigurationError("need one generator per order 1..K")
        if validate:
            if not sdata.is_symplectic_matrix(c_mat):
                raise ConfigurationError("linear part is not in Sp(2n, Z)")
            if not gens[0].is_zero():
                raise ConfigurationError("generator curve must have valuation >= 1")
            for k, g in enumerate(gens):
                if g.dim != dim:
                    raise ConfigurationError("generator dim mismatch")
                if not g.is_real():
                    raise ConfigurationError(f"order-{k} generator is not real")
                if not g.is_symplectic(sdata):
                    raise ConfigurationError(f"order-{k} generator is not symplectic")
        c_inv = c_mat if c_mat == _eye(dim) else sdata.symplectic_inverse(c_mat)
        self.sdata = sdata
        self.cap = cap
        self.c_mat = c_mat
        self.c_inv = c_inv
        self.d = d
        self.gens = gens

    # -- constructors ----------------------------------------------------------

    @classmethod
    def identity(cls, sdata, cap):
        dim = sdata.dim
        return cls(
            sdata,
            cap,
            _eye(dim),
            _origin(dim),
            [FourierVectorField.zero(dim)] * (cap + 1),
            validate=False,
        )

    @classmethod
    def affine(cls, sdata, cap, c_mat, d):
        dim = sdata.dim
        return cls(sdata, cap, c_mat, d, [FourierVectorField.zero(dim)] * (cap + 1))

    @classmethod
    def from_hamiltonian(cls, sdata, cap, f: FourierScalar, order, coeff=1):
        """psi_f(c t^k) = exp(c t^k X_f) with identity affine part.

        The curve is built unvalidated.  Its one generator is real because f,
        omega and c are, and symplectic because `hamiltonian_field` has
        verified i(X_f) omega = df, which is closed; the identity is in
        Sp(2n, Z) and order 0 is zero."""
        if not 1 <= order <= cap:
            raise PreconditionError("Hamiltonian order must lie in 1..K")
        if not f.is_real():
            raise PreconditionError("Hamiltonian must be real")
        dim = sdata.dim
        gens = [FourierVectorField.zero(dim) for _ in range(cap + 1)]
        gens[order] = hamiltonian_field(sdata, f).scale(Fraction(coeff))
        return cls(sdata, cap, _eye(dim), _origin(dim), gens, validate=False)

    # -- basic queries ---------------------------------------------------------

    @property
    def dim(self):
        return self.sdata.dim

    def is_identity(self):
        return self.has_identity_affine_part() and all(g.is_zero() for g in self.gens)

    def has_identity_affine_part(self):
        return self.c_mat == _eye(self.dim) and not any(self.d)

    def __eq__(self, other):
        """Equality of canonical forms sigma^* o exp X_t."""
        if not isinstance(other, SymplectoCurve):
            return NotImplemented
        return (
            self.sdata == other.sdata
            and self.cap == other.cap
            and self.c_mat == other.c_mat
            and self.d == other.d
            and self.gens == other.gens
        )

    def __repr__(self):
        return f"SymplectoCurve(dim={self.dim}, cap={self.cap})"


def require_matching(sdata: SymplecticData, cap, conn: ConnectionCurve):
    """Refuse a symplectomorphism curve of the given omega and cap for conn
    unless both match the curve's."""
    if sdata != conn.sdata or cap != conn.cap:
        raise PreconditionError(
            "symplectomorphism and connection need matching omega and caps"
        )


# Ceiling on `act_work` for a witness and a curve the command line reads.  On
# a 2-vCPU VM, psi_f(t) with f four cosines of modes in [-3, 3]^4 acting on
# the flat T^4 curve scores 280576 at cap 4 and takes 0.7-1.0 s; at cap 5
# (741376) 3.0 s.  The same f on T^6 at cap 3 scores 425088 for 1.2 s, and
# on T^8 at cap 2 262144 for 0.8 s.  The tests' other witnesses stay below
# 20000.
MAX_ACT_WORK = 300_000


def act_work(psi: SymplectoCurve, conn: ConnectionCurve) -> int:
    """dim^4 (a component (a, b, p) against the dim directions of dX) times
    the mode pairs that the Lie series of `act_on_connection` multiplies.
    Each X^(s) and each order of each term T_j (T_0 the curve, T_1 with the
    Hessian of X) is read as the union of its components' modes; the pairs
    of L_{X^(s)} T_(j-1)^(k-s) land on the sums, and equal sums meet, so the
    count follows the series' growth.  It stops at the first product past
    MAX_ACT_WORK, a lower bound then, and computes no coefficient."""
    require_matching(psi.sdata, psi.cap, conn)
    cap, unit = conn.cap, conn.dim ** 4
    gens = [set().union(*(f.coeffs for f in g.comps)) for g in psi.gens]
    term = [set().union(*(f.coeffs for f in t.components.values())) for t in conn.abar]
    moving = [s for s in range(1, cap + 1) if gens[s]]
    work = 0
    for j in range(1, cap + 1):
        nxt = []
        for k in range(cap + 1):
            modes = set(gens[k]) if j == 1 else set()
            for s in moving:
                if s > k:
                    break
                xs, ts = gens[s], term[k - s]
                if ts:
                    work += unit * len(xs) * len(ts)
                    if work > MAX_ACT_WORK:
                        return work
                    modes.update(tuple(a + b for a, b in zip(x, y)) for x in xs for y in ts)
            nxt.append(modes)
        term = nxt
        if not any(term):
            break
    return work


def act_on_connection(psi: SymplectoCurve, conn: ConnectionCurve) -> ConnectionCurve:
    """psi . nabla = sigma^*(exp(L_{X_t}) nabla) for psi = sigma^* o exp X_t.

    The exponential is `series.exp_lie_connection` on the mixed tensors
    A^p_ab; its result is lowered with omega and, unless sigma is the
    identity, pulled back through sigma as a covariant tensor (C is
    symplectic, so lowering and pulling back commute).  When sigma is the
    identity the Lie series' output is the new curve's `mixed` as it is:
    raising the last index of the lowered orders would give it back.  The
    output is verified fully symmetric and flat at order 0; a failure is
    fatal because it would mean the action left the space of symplectic
    connection curves.  psi and the curve must share omega and the cap.
    """
    require_matching(psi.sdata, psi.cap, conn)
    sdata, cap, dim = conn.sdata, conn.cap, conn.dim
    moved = exp_lie_connection(psi.gens, [m.components for m in conn.mixed])
    affine = not psi.has_identity_affine_part()
    abar, mixed = [], []
    for k, comp in enumerate(moved):
        m = TensorField(dim, 3, comp, _validated=True)
        mixed.append(m)
        t = lower_last(m, sdata)
        if affine:
            t = affine_pullback_tensor(psi.c_mat, psi.d, t)
        if k == 0:
            if not t.is_zero():
                raise InternalInconsistency(
                    "action moved the order-0 term away from the flat base"
                )
            abar.append(TensorField.zero(dim, 3, "fully_symmetric"))
            continue
        if not t.is_fully_symmetric():
            raise InternalInconsistency(
                f"acted connection lost full symmetry at order {k}"
            )
        if not t.is_real():
            raise InternalInconsistency(f"acted connection lost reality at order {k}")
        t.symmetry_tag = "fully_symmetric"
        abar.append(t)
    return ConnectionCurve(sdata, cap, abar, validate=False,
                           mixed=None if affine else mixed)


# -- normal ordering -----------------------------------------------------------


def compose(*psis: SymplectoCurve) -> SymplectoCurve:
    """Operator composition psi_1 o ... o psi_n, normal-ordered once to
    sigma^* o exp Z_t.

    In sigma_1^* exp(X_1) ... sigma_n^* exp(X_n) the affine parts collect to
    (sigma_n o ... o sigma_1)^*, and each X_i is conjugated through the
    inverse of the affine part on its right, (sigma_n o ... o sigma_(i+1))^*,
    which is skipped while that part is the identity; the moved ladders then
    merge in one `merge_exponentials`.  A factor's translation enters the
    collected one only when it is nonzero, and its matrix the collected
    matrices only when it is not the identity; the collected matrix is
    checked symplectic on every call.  The omega and cap check runs first,
    over all factors.  Identity factors are exact no-ops and are dropped: if
    none is left the first factor itself is returned, and if one is left that
    factor itself, with no normal ordering, so psi o id is psi.
    """
    if not psis:
        raise PreconditionError("composition needs at least one factor")
    sdata, cap = psis[0].sdata, psis[0].cap
    if any(psi.sdata != sdata or psi.cap != cap for psi in psis):
        raise PreconditionError("composition needs matching omega and caps")
    kept = [psi for psi in psis if not psi.is_identity()]
    if len(kept) <= 1:
        return kept[0] if kept else psis[0]
    # rho = sigma_n o ... o sigma_(i+1), the affine part right of factor i
    last, eye = kept[-1], _eye(sdata.dim)
    moved = [last.gens]
    c_rho, c_rho_inv, d_rho = last.c_mat, last.c_inv, last.d
    rho_is_identity = last.has_identity_affine_part()
    for psi in reversed(kept[:-1]):
        if rho_is_identity:
            moved.append(psi.gens)
        else:
            back = tuple(-x for x in mat_vec(c_rho_inv, d_rho))
            moved.append([
                conj_affine(c_rho_inv, c_rho, back, g) if not g.is_zero() else g
                for g in psi.gens
            ])
        # C_rho 0 = 0 and C I = C: a zero d or an identity C adds no work
        shifted, linear = any(psi.d), psi.c_mat != eye
        rho_is_identity = rho_is_identity and not (shifted or linear)
        if shifted:
            d_rho = tuple(x + y for x, y in zip(mat_vec(c_rho, psi.d), d_rho))
        if linear:
            c_rho = _mat_mul(c_rho, psi.c_mat)
            c_rho_inv = _mat_mul(psi.c_inv, c_rho_inv)
    if not sdata.is_symplectic_matrix(c_rho):
        raise InternalInconsistency("product of Sp(2n, Z) matrices is not symplectic")
    z = merge_exponentials(sdata, *reversed(moved))
    # merge_exponentials has asserted every order of z real and symplectic
    return SymplectoCurve(sdata, cap, c_rho, d_rho, z, validate=False)


def _mat_mul(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)
