"""Scalars, vector fields and the truncated Lie-series calculus in t.

One construction serves both function algebras of the package:
trigonometric polynomials on the torus (`fourier.FourierScalar`,
`symplecto.FourierVectorField`) and polynomials on R^(2n) (`euclidean.Poly`,
`euclidean.PolyVectorField`).  Both scalar types are a `SparseScalar`, whose
arithmetic is the sparse-map kernels of `_kernel.pure`; a scalar type adds
its coefficient type and its derivative.  A field type names its scalar type
and supplies two coordinate hooks; everything else lives here.

Curves are plain lists of length cap + 1 indexed by t-order.  A generator
ladder gens[0..cap] always has gens[0] = 0, so every exponential below is an
exact finite sum: the j-th power of X_t has valuation >= j and vanishes past
the cap.  One table, `exp_terms`, builds those powers one order at a time for
`exp_apply`, `exp_ad` and normal ordering, so solving order k re-expands
nothing below it.  Normal ordering, `merge_exponentials`, takes any number
of factors: a product exp(L1_t) ... exp(Ln_t) becomes one exp(Z_t) in one
pass, so a chain of factors is never merged two at a time.  Only
`exp_lie_connection`, whose first term is affine in the connection, keeps
its own series.
"""

from __future__ import annotations

from ._kernel import pure as K
from ._kernel.pure import accumulate
from .errors import ConfigurationError, InternalInconsistency
from .rationals import Fraction


class SparseScalar:
    """A function as a sparse map key -> nonzero coefficient; immutable.

    Keys are int tuples of length dim that add under products: Fourier
    modes for `fourier.FourierScalar`, exponent vectors for `euclidean.Poly`.
    A subclass sets `coeff_type`, its coefficient type, and supplies
    `derivative`.  The checked constructor converts every coefficient to
    `coeff_type` and drops zeros; `_validated=True` skips it for maps the
    kernels built.  This is the contract `VectorField.scalar` names.
    """

    __slots__ = ("dim", "coeffs")

    coeff_type = None

    def __init__(self, dim, coeffs=None, _validated=False):
        self.dim = dim
        if coeffs is None:
            coeffs = {}
        if not _validated:
            coeff_type = self.coeff_type
            clean = {}
            for m, c in coeffs.items():
                m = tuple(int(x) for x in m)
                if len(m) != dim:
                    raise ConfigurationError("key length != dim")
                if not isinstance(c, coeff_type):
                    c = coeff_type(c)
                if c:
                    clean[m] = c
            coeffs = clean
        self.coeffs = coeffs

    @classmethod
    def zero(cls, dim):
        return cls(dim, {}, _validated=True)

    @classmethod
    def constant(cls, dim, value):
        return cls(dim, {(0,) * dim: value})

    def _check(self, other):
        if self.dim != other.dim:
            raise ConfigurationError("scalar dim mismatch")

    def __add__(self, other):
        self._check(other)
        return type(self)(self.dim, K.dict_add(self.coeffs, other.coeffs), _validated=True)

    def __sub__(self, other):
        self._check(other)
        return type(self)(self.dim, K.dict_sub(self.coeffs, other.coeffs), _validated=True)

    def __neg__(self):
        return type(self)(self.dim, K.dict_neg(self.coeffs), _validated=True)

    def __mul__(self, other):
        if isinstance(other, SparseScalar):
            self._check(other)
            return type(self)(
                self.dim, K.dict_convolve(self.coeffs, other.coeffs), _validated=True
            )
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        if c == 1 or c == -1:  # immutable: share self, or negate without multiplying
            return self if c == 1 else -self
        return type(self)(self.dim, K.dict_scale(self.coeffs, c), _validated=True)

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def is_constant(self):
        return all(not any(m) for m in self.coeffs)

    def constant_part(self):
        """The coefficient at the zero key."""
        return self.coeffs.get((0,) * self.dim, self.coeff_type(0))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.dim == other.dim and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.dim, frozenset(self.coeffs.items())))


class VectorField:
    """Contravariant vector field whose components are `scalar` objects.

    A subclass sets `scalar`, a `SparseScalar` type with `is_real`, and the
    two coordinate hooks `merge_exponentials` solves with:

    - `test_function(dim, a)`: a scalar f_a; the f_a generate the function
      algebra, so two truncated automorphisms equal on every f_a are equal;
    - `component_from_mismatch(dim, a, diff)`: Z^a from diff = Z(f_a).
    """

    __slots__ = ("dim", "comps")

    scalar = None

    def __init__(self, comps):
        comps = tuple(comps)
        if not comps:
            raise ConfigurationError("vector field needs at least one component")
        dim = comps[0].dim
        if len(comps) != dim or any(c.dim != dim for c in comps):
            raise ConfigurationError("vector field needs one component per coordinate")
        self.dim = dim
        self.comps = comps

    @classmethod
    def zero(cls, dim):
        z = cls.scalar.zero(dim)
        return cls([z] * dim)

    @classmethod
    def constant(cls, dim, vector):
        return cls([cls.scalar.constant(dim, Fraction(v)) for v in vector])

    def __add__(self, other):
        if self.dim != other.dim:
            raise ConfigurationError("vector field dim mismatch")
        return type(self)([a + b for a, b in zip(self.comps, other.comps)])

    def __sub__(self, other):
        if self.dim != other.dim:
            raise ConfigurationError("vector field dim mismatch")
        return type(self)([a - b for a, b in zip(self.comps, other.comps)])

    def __neg__(self):
        return type(self)([-c for c in self.comps])

    def scale(self, s):
        return type(self)([c.scale(s) for c in self.comps])

    def apply(self, f):
        """The derivation X(f) = sum_a X^a df/dx^a."""
        out = self.scalar.zero(self.dim)
        for a, xa in enumerate(self.comps):
            if not xa.is_zero():
                out = out + xa * f.derivative(a)
        return out

    def derive(self, other):
        """The flat derivative of a field, (X(Y^c))_c."""
        return type(self)([self.apply(c) for c in other.comps])

    def bracket(self, other):
        """[X, Y]^c = X(Y^c) - Y(X^c)."""
        return self.derive(other) - other.derive(self)

    def interior_omega(self, sdata):
        """i(X)omega as the covector alpha_b = sum_a omega_ab X^a."""
        dim = self.dim
        lo = sdata.omega_lo
        alpha = []
        for b in range(dim):
            ab = self.scalar.zero(dim)
            for a in range(dim):
                if lo[a][b]:
                    ab = ab + self.comps[a].scale(lo[a][b])
            alpha.append(ab)
        return alpha

    def is_symplectic(self, sdata):
        """d(i(X)omega) = 0 for the constant form omega."""
        dim = self.dim
        alpha = self.interior_omega(sdata)
        for a in range(dim):
            for b in range(a + 1, dim):
                if not (alpha[b].derivative(a) - alpha[a].derivative(b)).is_zero():
                    return False
        return True

    def is_zero(self):
        return all(c.is_zero() for c in self.comps)

    def is_real(self):
        return all(c.is_real() for c in self.comps)

    def is_constant(self):
        return all(c.is_constant() for c in self.comps)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.comps == other.comps

    def __hash__(self):
        return hash(self.comps)

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim})"


# -- truncated exponentials -----------------------------------------------------


def exp_terms(op, gens, curves, solve=None):
    """The terms Q_j = X_t^j c / j! of exp(X_t) c for each curve c, built one
    order at a time: tables[i][j][k] = Q_j[k] for curves[i], with Q_0 = c and
    Q_j[k] = (1/j) sum_s op(X^(s), Q_(j-1)[k-s]).  op is `VectorField.apply`
    on scalar curves and `VectorField.bracket` on field curves.  Q_j has
    valuation >= j, so j runs to the cap and s to k - j + 1.

    solve(k, partials) is the normal-ordering hook.  gens[k] is zero on
    entry; partials[i] is order k of exp(X_t) curves[i] without X^(k), and
    gens[k] is set to solve's result before X^(k) c[0] is added to Q_1[k].
    """
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
            gens[k] = solve(k, [_order_sum(q, k) for q in tables])
            for q in tables:
                q[1][k] = q[1][k] + op(gens[k], q[0][0])
    return tables


def _order_sum(q, k):
    """Order k of exp(X_t) c from its table: sum_j Q_j[k]."""
    return sum((q[j][k] for j in range(1, k + 1) if not q[j][k].is_zero()), q[0][k])


def _exp(op, gens, curve):
    q = exp_terms(op, gens, [curve])[0]
    return [_order_sum(q, k) for k in range(len(curve))]


def exp_apply(gens, fcurve):
    """exp(X_t) applied to a scalar curve."""
    return _exp(VectorField.apply, gens, fcurve)


def exp_ad(gens, ycurve):
    """exp(ad X_t) Y for a vector-field curve Y."""
    return _exp(VectorField.bracket, gens, ycurve)


# -- the action on connections -----------------------------------------------------


class _LieData:
    """The first and second flat derivatives of one generator X:
    into[q] = [(r, d_r X^q)], outof[r] = [(q, -d_r X^q)] and
    hessian = {(a, b, p): d_a d_b X^p}, all without zero entries."""

    __slots__ = ("field", "into", "outof", "hessian")

    def __init__(self, x: VectorField):
        dim = x.dim
        self.field = x
        self.into = [[] for _ in range(dim)]
        self.outof = [[] for _ in range(dim)]
        self.hessian = {}
        for q, xq in enumerate(x.comps):
            for r in range(dim):
                d = xq.derivative(r)
                if d.is_zero():
                    continue
                self.into[q].append((r, d))
                self.outof[r].append((q, -d))
                for a in range(dim):
                    accumulate(self.hessian, (a, r, q), d.derivative(a))

    def lie(self, gamma, acc):
        """acc += L_X gamma for a (1,2) tensor gamma = {(a, b, p): G^p_ab}:
        (L_X G)^p_ab = X(G^p_ab) - G^q_ab d_q X^p + G^p_qb d_a X^q
        + G^p_aq d_b X^q."""
        for (a, b, p), g in gamma.items():
            accumulate(acc, (a, b, p), self.field.apply(g))
            for r, d in self.outof[p]:
                accumulate(acc, (a, b, r), g * d)
            for r, d in self.into[a]:
                accumulate(acc, (r, b, p), g * d)
            for r, d in self.into[b]:
                accumulate(acc, (a, r, p), g * d)


def exp_lie_connection(gens, gamma):
    """exp(L_{X_t}) acting on the connection curve d + Gamma_t.

    gamma[k] = {(a, b, p): Gamma^(k)p_ab}, the Christoffel symbols of order
    k with nabla_{e_a} e_b = sum_p Gamma^p_ab e_p; the result has the same
    shape.  On connections L_X is the affine derivation
      L_X (d + Gamma) = d d X + L_X Gamma,
    with (d d X)^p_ab = d_a d_b X^p, so
      exp(L_X) Gamma = Gamma + sum_{j>=1} (1/j!) L_X^(j-1) (d d X + L_X Gamma).
    Every term is graded in t and the j-th has valuation >= j, so the sum is
    exact at the cap.  Every component (a, b, p) is computed; symmetry in
    (a, b) is a property of the result, not an assumption.
    """
    data = [None] + [
        None if g.is_zero() else _LieData(g) for g in gens[1:]
    ]

    def lie(curve):
        out = []
        for k in range(len(curve)):
            acc = {}
            for s in range(1, k + 1):
                if data[s] is not None and curve[k - s]:
                    data[s].lie(curve[k - s], acc)
            out.append(acc)
        return out

    term = lie(gamma)
    for k, d in enumerate(data):
        if d is not None:
            for idx, f in d.hessian.items():
                accumulate(term[k], idx, f)
    out = [dict(order) for order in gamma]
    for j in range(1, len(gamma)):
        if j > 1:
            inv = Fraction(1, j)
            term = [{idx: f.scale(inv) for idx, f in order.items()} for order in lie(term)]
        if not any(term):
            break
        for order, add in zip(out, term):
            for idx, f in add.items():
                accumulate(order, idx, f)
    return out


# -- normal ordering -------------------------------------------------------------


def coordinate_tests(field, dim, cap):
    """The test functions f_a of a field type, as scalar curves."""
    zero = field.scalar.zero(dim)
    return [[field.test_function(dim, a)] + [zero] * cap for a in range(dim)]


def order_from_mismatch(field, diffs):
    """The field Z with Z(f_a) = diffs[a] for every coordinate test f_a.

    When diffs[a] is the order-k mismatch between a target and exp(Z_t) f_a
    with Z known below order k, this is Z^(k): every other contribution at
    order k is already in the exponential."""
    dim = len(diffs)
    return field([field.component_from_mismatch(dim, a, diff) for a, diff in enumerate(diffs)])


def merge_exponentials(sdata, *ladders):
    """The generator ladder Z with exp(Z_t) = exp(L1_t) ... exp(Ln_t) through
    the cap, for one or more ladders in that order, solved order by order on
    the coordinate test functions (no BCH series needed).  The targets are
    the nested exp_apply(L1, ... exp_apply(Ln, f_a)), innermost factor
    first; Z then comes from one pass of `exp_terms`: f_a is constant in t,
    so Z^(k) enters order k only through Q_1[k] = Z^(k) f_a, and Z^(k) is
    read from target[k] minus the rest of order k.  Every order is asserted
    real and symplectic, and the result is verified independently by
    exp_apply(Z, f_a) == target."""
    field = type(ladders[0][0])
    dim, cap = ladders[0][0].dim, len(ladders[0]) - 1
    tests = coordinate_tests(field, dim, cap)
    targets = []
    for f in tests:
        for gens in reversed(ladders):
            f = exp_apply(gens, f)
        targets.append(f)

    def solve(k, partials):
        zk = order_from_mismatch(field, [t[k] - p for t, p in zip(targets, partials)])
        if not zk.is_real() or not zk.is_symplectic(sdata):
            raise InternalInconsistency(
                f"merged generator at order {k} is not a real symplectic field"
            )
        return zk

    z = [field.zero(dim)] * (cap + 1)
    exp_terms(VectorField.apply, z, tests, solve)
    for f, target in zip(tests, targets):
        if exp_apply(z, f) != target:
            raise InternalInconsistency("normal ordering failed verification")
    return z
