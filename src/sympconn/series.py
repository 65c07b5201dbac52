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
its own series, one copy for both scalar types.

Every sum here goes into `_kernel.pure.GaussianSums` and is reduced once:
X(f), [X, Y], i(X)omega, d(i(X)omega) for `is_symplectic`, each order of
the `exp_terms` table (all of its terms, with the weight 1/j, through the
adders `VectorField.add_apply` and `VectorField.add_bracket`) and every
term of `exp_lie_connection`.
"""

from __future__ import annotations

from ._kernel import pure as K
from .errors import ConfigurationError, InternalInconsistency
from .rationals import Fraction, exact


class SparseScalar:
    """A function as a sparse map key -> nonzero coefficient; immutable.

    Keys are int tuples of length dim that add under products: Fourier
    modes for `fourier.FourierScalar`, exponent vectors for `euclidean.Poly`.
    A subclass sets `coeff_type`, its coefficient type, and supplies
    `derivative` and `derivative_terms(axis)`, the terms (key, p, q, d) of
    that derivative, each the value (p + i q) / d not yet reduced, which
    `VectorField.add_apply` multiplies into a `GaussianSums` without
    building the derivative, and `second_derivative_terms(a, b)`, those of
    d/dx^a d/dx^b, which the Lie series on connections reads.  The checked
    constructor refuses a key entry that is not an int and any coefficient
    that `rationals.exact` refuses (a float or a bool among them), converts
    every coefficient to `coeff_type` and drops zeros; `_validated=True`
    skips it for maps the kernels built.  This is the contract
    `VectorField.scalar` names.

    Because a scalar is immutable, `axes()` is computed on its first read
    and kept in the slot `_axes`, which the constructor sets to None: a read
    of a set slot is a plain attribute read, where an unset one would raise
    and catch an AttributeError.  `==` and `hash` read only `dim` and
    `coeffs`.
    """

    __slots__ = ("dim", "coeffs", "_axes")

    coeff_type = None

    def __init__(self, dim, coeffs=None, _validated=False):
        self.dim = dim
        self._axes = None
        if coeffs is None:
            coeffs = {}
        if not _validated:
            coeff_type = self.coeff_type
            clean = {}
            for m, c in coeffs.items():
                m = tuple(m)
                if len(m) != dim:
                    raise ConfigurationError("key length != dim")
                for x in m:
                    if type(x) is not int:
                        raise ConfigurationError(f"key {m} has the entry {x!r}, not an int")
                if not isinstance(c, coeff_type):
                    c = coeff_type(exact(c, "coefficient at", m))
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

    def axes(self):
        """The axes a at which some key has a nonzero entry, as an ascending
        tuple, computed once; the derivative along any other axis is zero."""
        axes = self._axes
        if axes is None:
            axes = self._axes = tuple([a for a, column in enumerate(zip(*self.coeffs))
                                       if any(column)])
        return axes

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
        return cls([cls.scalar.constant(dim, Fraction(exact(v, "vector entry", a)))
                    for a, v in enumerate(vector)])

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
        """The derivation X(f) = sum_a X^a df/dx^a, in one `GaussianSums`."""
        acc = K.GaussianSums()
        self.add_apply(acc, 0, f)
        return acc.finish(self.scalar, self.dim).get(0) or self.scalar.zero(self.dim)

    def add_apply(self, acc, key, f, weight=1):
        """acc[key] += weight X(f) for a `GaussianSums` acc and a rational
        weight: each X^a times the `derivative_terms` of f along a."""
        comps = self.comps
        for a in f.axes():
            if xa := comps[a].coeffs:
                acc.add_times_terms(key, xa, f.derivative_terms(a), weight=weight)

    def derive(self, other):
        """The flat derivative of a field, (X(Y^c))_c."""
        return type(self)([self.apply(c) for c in other.comps])

    def bracket(self, other):
        """[X, Y]^c = X(Y^c) - Y(X^c), in one `GaussianSums`."""
        acc = K.GaussianSums()
        self.add_bracket(acc, (), other)
        return _fields(type(self), self.dim, acc).get(()) or type(self).zero(self.dim)

    def add_bracket(self, acc, key, other, weight=1):
        """acc[key + (c,)] += weight [X, Y]^c for every component c."""
        for c, (xc, yc) in enumerate(zip(self.comps, other.comps)):
            self.add_apply(acc, key + (c,), yc, weight)
            other.add_apply(acc, key + (c,), xc, -weight)

    def interior_omega(self, sdata):
        """i(X)omega as the covector alpha_b = sum_a omega_ab X^a."""
        return combine(self.comps, sdata.omega_lo)

    def is_symplectic(self, sdata):
        """d(i(X)omega) = 0 for the constant form omega: with
        alpha_b = sum_c omega_cb X^c, every d_a alpha_b - d_b alpha_a with
        a < b is summed in one `GaussianSums`.  The zero field is symplectic
        at once."""
        if self.is_zero():
            return True
        rows, _ = sdata.index_map(upper=False)
        acc = K.GaussianSums()
        for c, xc in enumerate(self.comps):
            if not xc.coeffs:
                continue
            grads = [(a, xc.derivative_terms(a)) for a in xc.axes()]
            for b, w in rows[c]:
                for a, d in grads:
                    if a != b:
                        acc.add_terms((a, b) if a < b else (b, a), d, weight=w if a < b else -w)
        return acc.all_zero()

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


def combine(scalars, m):
    """[sum_b m[b][c] scalars[b] for each column c of m], for rational
    weights m[b][c], summed in one `GaussianSums`."""
    acc = K.GaussianSums()
    for row, f in zip(m, scalars):
        for c, w in enumerate(row):
            if w:
                acc.add(c, f.coeffs, weight=w)
    scalar, dim = type(scalars[0]), scalars[0].dim
    sums = acc.finish(scalar, dim)
    return [sums.get(c) or scalar.zero(dim) for c in range(len(m[0]))]


# -- truncated exponentials -----------------------------------------------------


def exp_terms(op, gens, curves, solve=None):
    """The terms Q_j = X_t^j c / j! of exp(X_t) c for each curve c, built one
    order at a time: tables[i][j][k] = Q_j[k] for curves[i], with Q_0 = c and
    Q_j[k] = (1/j) sum_s op(X^(s), Q_(j-1)[k-s]).  op adds into a
    `GaussianSums`, op(x, acc, key, y, weight) adding weight op(x, y) at key:
    `VectorField.add_apply` on scalar curves and `VectorField.add_bracket`
    on field curves.  Every term of order k, for every curve and every j,
    goes into one accumulator with the weight 1/j, finished once.  Q_j has
    valuation >= j, so j runs to the cap and s, over the nonzero generators
    only, to k - j + 1.

    solve(k, partials) is the normal-ordering hook.  gens[k] is zero on
    entry; partials[i] is order k of exp(X_t) curves[i] without X^(k), and
    gens[k] is set to solve's result before X^(k) c[0] is added to Q_1[k].
    """
    cap = len(gens) - 1
    zero = type(curves[0][0]).zero(curves[0][0].dim)
    tables = [[list(c)] + [[zero] * (cap + 1) for _ in range(cap)] for c in curves]
    weights = [None] + [Fraction(1, j) for j in range(1, cap + 1)]
    live = [s for s in range(1, cap + 1) if not gens[s].is_zero()]
    for k in range(1, cap + 1):
        acc = K.GaussianSums()
        for i, q in enumerate(tables):
            for j in range(1, k + 1):
                before = q[j - 1]
                for s in live:
                    if s > k - j + 1:
                        break
                    if not before[k - s].is_zero():
                        op(gens[s], acc, (i, j), before[k - s], weights[j])
        sums = _finish(acc, zero)
        for i, q in enumerate(tables):
            for j in range(1, k + 1):
                q[j][k] = sums.get((i, j), zero)
        if solve is not None:
            gens[k] = solve(k, [_order_sum(q, k) for q in tables])
            if gens[k].is_zero():
                continue
            live.append(k)
            acc = K.GaussianSums()
            for i, q in enumerate(tables):
                op(gens[k], acc, (i,), q[0][0], 1)
            for (i,), f in _finish(acc, zero).items():
                tables[i][1][k] = tables[i][1][k] + f
    return tables


def _finish(acc, like):
    """The sums of acc as values of like's type: {key: scalar} for a
    scalar, {key: field} for a field (`_fields`)."""
    if isinstance(like, VectorField):
        return _fields(type(like), like.dim, acc)
    return acc.finish(type(like), like.dim)


def _fields(field, dim, acc):
    """{key: field} from the sums at key + (c,) of each component c."""
    zero = field.scalar.zero(dim)
    comps = {}
    for (*key, c), f in acc.finish(field.scalar, dim).items():
        comps.setdefault(tuple(key), [zero] * dim)[c] = f
    return {key: field(cs) for key, cs in comps.items()}


def _order_sum(q, k):
    """Order k of exp(X_t) c from its table: sum_j Q_j[k], in one
    `GaussianSums` when two or more terms are nonzero; a lone nonzero term
    is returned as it is, and Q_0[k] when none is."""
    terms = [q[j][k] for j in range(k + 1) if not q[j][k].is_zero()]
    if len(terms) < 2:
        return terms[0] if terms else q[0][k]
    like = terms[0]
    acc = K.GaussianSums()
    for f in terms:
        if isinstance(f, VectorField):
            for c, fc in enumerate(f.comps):
                if fc.coeffs:
                    acc.add((c,), fc.coeffs)
        else:
            acc.add((), f.coeffs)
    return _finish(acc, like).get(()) or type(like).zero(like.dim)


def exp_curves(op, gens, curves):
    """exp(X_t) applied to each curve, in one `exp_terms` pass; op as
    there."""
    return [[_order_sum(q, k) for k in range(len(gens))] for q in exp_terms(op, gens, curves)]


def exp_apply(gens, fcurve):
    """exp(X_t) applied to a scalar curve."""
    return exp_curves(VectorField.add_apply, gens, [fcurve])[0]


def exp_ad(gens, ycurve):
    """exp(ad X_t) Y for a vector-field curve Y."""
    return exp_curves(VectorField.add_bracket, gens, [ycurve])[0]


# -- the action on connections -----------------------------------------------------


class _LieData:
    """The first and second flat derivatives of one generator X, as the
    unreduced terms of `derivative_terms` and `second_derivative_terms`:
    into[q] = [(r, d_r X^q)], outof[r] = [(q, d_r X^q)] and
    hessian = {(a, b, p): d_a d_b X^p}, all without empty term lists; no
    derivative is built as a scalar."""

    __slots__ = ("field", "into", "outof", "hessian")

    def __init__(self, x: VectorField):
        dim = x.dim
        self.field = x
        self.into = [[] for _ in range(dim)]
        self.outof = [[] for _ in range(dim)]
        self.hessian = {}
        for q, xq in enumerate(x.comps):
            axes = xq.axes()
            for r in axes:
                d = xq.derivative_terms(r)
                self.into[q].append((r, d))
                self.outof[r].append((q, d))
                for a in axes:
                    if h := xq.second_derivative_terms(a, r):
                        self.hessian[(a, r, q)] = h

    def lie(self, gamma, acc):
        """acc += L_X gamma in a `GaussianSums`, for gamma = {(a, b, p): G^p_ab}:
        (L_X G)^p_ab = X(G^p_ab) - G^q_ab d_q X^p + G^p_qb d_a X^q
        + G^p_aq d_b X^q."""
        for (a, b, p), g in gamma.items():
            self.field.add_apply(acc, (a, b, p), g)
            g = g.coeffs
            for r, d in self.outof[p]:
                acc.add_times_terms((a, b, r), g, d, -1)
            for r, d in self.into[a]:
                acc.add_times_terms((r, b, p), g, d)
            for r, d in self.into[b]:
                acc.add_times_terms((a, r, p), g, d)


def exp_lie_connection(gens, gamma):
    """exp(L_{X_t}) acting on the connection curve d + Gamma_t.

    gamma[k] = {(a, b, p): Gamma^(k)p_ab}, the Christoffel symbols of order
    k with nabla_{e_a} e_b = sum_p Gamma^p_ab e_p, as scalars of the
    generators' scalar type; the result has the same shape.  On connections
    L_X is the affine derivation
      L_X (d + Gamma) = d d X + L_X Gamma,
    with (d d X)^p_ab = d_a d_b X^p, so
      exp(L_X) Gamma = sum_j T_j / j!,  T_0 = Gamma,
      T_1 = d d X + L_X Gamma,  T_j = L_X T_(j-1).
    Every term is graded in t and T_j has valuation >= j, so the sum is
    exact at the cap.  Each order of each T_j is one `GaussianSums`,
    finished once because the next term takes its derivatives.  An order of
    the result that holds one nonzero term of weight 1 (Gamma alone, or T_1
    alone on an empty Gamma order) is that term's scalars in a new dict;
    every other order is one more `GaussianSums`, into which its T_j are
    added in order of j with the weight 1/j!.  Every component (a, b, p) is
    computed; symmetry in (a, b) is a property of the result, not an
    assumption.
    """
    scalar, dim = gens[0].scalar, gens[0].dim
    data = [None] + [None if g.is_zero() else _LieData(g) for g in gens[1:]]

    def lie(curve, ddx=False):
        """Order by order L_{X_t} curve, plus d d X_t when ddx is set."""
        out = []
        for k in range(len(curve)):
            acc = K.GaussianSums()
            for s in range(1, k + 1):
                if data[s] is not None and curve[k - s]:
                    data[s].lie(curve[k - s], acc)
            if ddx and data[k] is not None:
                for idx, h in data[k].hessian.items():
                    acc.add_terms(idx, h)
            out.append(acc.finish(scalar, dim))
        return out

    parts = [[] for _ in gamma]  # per order, the nonzero (1/j!, T_j) in order of j
    term, weight = gamma, Fraction(1)
    for j in range(len(gamma)):
        if j:
            term = lie(term, ddx=j == 1)
            if not any(term):
                break
            weight /= j
        for found, order in zip(parts, term):
            if order:
                found.append((weight, order))
    out = []
    for found in parts:
        if len(found) == 1 and found[0][0] == 1:
            out.append(dict(found[0][1]))
            continue
        acc = K.GaussianSums()
        for weight, order in found:
            for idx, f in order.items():
                acc.add(idx, f.coeffs, weight=weight)
        out.append(acc.finish(scalar, dim))
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
    the nested exp(L1_t) ... exp(Ln_t) f_a, one `exp_terms` pass per ladder
    over all the tests, innermost ladder first; Z then comes from one pass
    of `exp_terms`: f_a is constant in t, so Z^(k) enters order k only
    through Q_1[k] = Z^(k) f_a, and Z^(k) is read from target[k] minus the
    rest of order k.  Every order is asserted real and symplectic, and the
    result is verified independently by one more `exp_terms` pass, of Z over
    the tests, compared with the targets order by order."""
    field = type(ladders[0][0])
    dim, cap = ladders[0][0].dim, len(ladders[0]) - 1
    tests = coordinate_tests(field, dim, cap)
    targets = tests
    for gens in reversed(ladders):
        targets = exp_curves(VectorField.add_apply, gens, targets)

    def solve(k, partials):
        zk = order_from_mismatch(field, [t[k] - p for t, p in zip(targets, partials)])
        if not zk.is_real() or not zk.is_symplectic(sdata):
            raise InternalInconsistency(
                f"merged generator at order {k} is not a real symplectic field"
            )
        return zk

    z = [field.zero(dim)] * (cap + 1)
    exp_terms(VectorField.add_apply, z, tests, solve)
    if exp_curves(VectorField.add_apply, z, tests) != targets:
        raise InternalInconsistency("normal ordering failed verification")
    return z
