"""Trigonometric-polynomial scalars and covariant tensor fields on the torus.

Scalars are finite Fourier sums f(x) = sum_m c_m e^{i m.x} with Gaussian
rational coefficients and modes m in Z^{2n} (angle period 2 pi).  Real
fields satisfy c_{-m} = conj(c_m); the public constructors enforce this,
and all documented operations preserve it.  Complex scalars (single modes
e^{i x^a}) appear internally as test functions for logarithm extraction.
`SymplecticData` holds omega and the one sparse check and integral inverse
of the matrices in Sp(2n, Z) for it.

Indices are 0-based internally; serialized files use 1-based indices.
"""

from __future__ import annotations

from functools import cache, lru_cache
from itertools import permutations

from ._kernel import pure as K
from .errors import ConfigurationError, InternalInconsistency
from .linalg import inverse, mat_neg, matrix, transpose
from .rationals import Fraction, GaussianRational, GR_ONE, exact
from .series import SparseScalar


def _int_if_integral(x):
    return int(x) if x.denominator == 1 else x


@lru_cache(maxsize=16)
def _omega_inverse(omega_lo):
    """omega^{-1}, one Gauss-Jordan elimination per omega while it is among
    the 16 last used.  A singular omega raises, and a raised call is never
    cached, so it is refused on every call."""
    return inverse(omega_lo)


def _index_map(w):
    rows = tuple(tuple((p, _int_if_integral(x)) for p, x in enumerate(row) if x) for row in w)
    return rows, all(len(row) == 1 for row in rows)


class SymplecticData:
    """Even dimension 2n >= 4 with a constant antisymmetric invertible omega.

    Conventions: omega_lo is omega_{ab}; omega_hi is the matrix omega^{ab}
    with sum_q omega^{pq} omega_{ql} = delta^p_l.

    The symplectic group of omega lives here too: `is_symplectic_matrix` is
    the one check of C^T omega C = omega and `symplectic_inverse` the one
    integral inverse omega^{-1} C^T omega.  Both sum over the nonzero entries
    of omega only, with term lists built once per omega on first use.  So
    do the index maps by omega and omega^{-1} (`index_map`), which
    `raise_last`, `lower_last` and `VectorField.is_symplectic` read.
    """

    __slots__ = ("dim", "omega_lo", "omega_hi", "_sp_terms", "_index_maps", "_hash")

    def __init__(self, omega_lo):
        omega_lo = matrix(omega_lo)
        dim = len(omega_lo)
        if dim < 4 or dim % 2:
            raise ConfigurationError("dimension must be even and >= 4")
        if any(len(row) != dim for row in omega_lo):
            raise ConfigurationError("omega must be square")
        if omega_lo != mat_neg(transpose(omega_lo)):
            raise ConfigurationError("omega must be antisymmetric")
        self.dim = dim
        self.omega_lo = omega_lo
        self.omega_hi = _omega_inverse(omega_lo)
        self._sp_terms = None
        self._index_maps = None
        # omega is immutable and its Fractions hash slowly; the per-omega
        # caches (`lru_cache` on a SymplecticData) hash it on every call
        self._hash = hash(omega_lo)

    @classmethod
    @cache
    def standard(cls, dim):
        """Block form omega(e_i, e_{n+i}) = 1 for i = 0..n-1; one object
        per dim, built on first use (a refused dim raises on every call)."""
        n = dim // 2
        rows = [[0] * dim for _ in range(dim)]
        for i in range(n):
            rows[i][n + i] = 1
            rows[n + i][i] = -1
        return cls(rows)

    @property
    def n(self):
        return self.dim // 2

    def is_standard(self):
        return self.omega_lo == SymplecticData.standard(self.dim).omega_lo

    def dual_basis(self):
        """Vectors X_j with omega(e_i, X_j) = delta_ij (columns of omega_lo^{-1})."""
        hi = self.omega_hi
        return [tuple(hi[p][j] for p in range(self.dim)) for j in range(self.dim)]

    def _terms(self):
        """The nonzero (l, j, omega_lj), and per (i, j) the nonzero
        (l, k, omega^{ik} omega_lj) of (omega^{-1} C^T omega)_ij; integral
        weights are ints."""
        if self._sp_terms is None:
            hi, lo, r = self.omega_hi, self.omega_lo, range(self.dim)
            check = [(l, j, _int_if_integral(lo[l][j])) for l in r for j in r if lo[l][j]]
            inv = [[[(l, k, _int_if_integral(hi[i][k] * w)) for k in r if hi[i][k]
                     for l, jj, w in check if jj == j] for j in r] for i in r]
            self._sp_terms = check, inv
        return self._sp_terms

    def index_map(self, upper):
        """(rows, monomial) for omega^{ab} when upper, else omega_ab: rows[c]
        lists the nonzero (p, w[c][p]), integral weights as ints.  monomial
        is true when every row holds one entry, as for the standard omega;
        w is invertible, so no two rows then share a column, and a map by w
        moves each term to a place of its own.  Built once per omega."""
        if self._index_maps is None:
            self._index_maps = tuple(_index_map(w) for w in (self.omega_lo, self.omega_hi))
        return self._index_maps[upper]

    def is_symplectic_matrix(self, c):
        """C^T omega C = omega for a dim x dim C with int or Fraction entries
        (the R^(2n) stabilizer's C is rational); any other shape is not.

        (C^T omega C)_ab = sum_{l,j} C_la omega_lj C_jb over the nonzero
        omega_lj.  Both sides are antisymmetric, so only a < b is compared."""
        dim = self.dim
        if len(c) != dim or any(len(row) != dim for row in c):
            return False
        check, _ = self._terms()
        lo = self.omega_lo
        return all(
            sum(w * c[l][a] * c[j][b] for l, j, w in check) == lo[a][b]
            for a in range(dim)
            for b in range(a + 1, dim)
        )

    def symplectic_inverse(self, c):
        """C^{-1} = omega^{-1} C^T omega, as ints, for an integral C that the
        caller has checked or built from checked matrices.  Such a C has
        determinant 1, so a fraction here is a bug."""
        _, terms = self._terms()
        c_inv = [[sum(w * c[l][k] for l, k, w in t) for t in row] for row in terms]
        if any(x.denominator != 1 for row in c_inv for x in row):
            raise InternalInconsistency("inverse of an integral symplectic matrix is not integral")
        return tuple(tuple(map(int, row)) for row in c_inv)

    def __eq__(self, other):
        return isinstance(other, SymplecticData) and self.omega_lo == other.omega_lo

    def __hash__(self):
        return self._hash


class FourierScalar(SparseScalar):
    """Sparse trigonometric polynomial: Fourier mode -> GaussianRational."""

    __slots__ = ()

    coeff_type = GaussianRational

    # -- constructors ------------------------------------------------------

    @classmethod
    def cosine(cls, dim, mode, amplitude=1):
        """amplitude * cos(m.x); the zero mode gives the constant amplitude."""
        mode = tuple(mode)
        amplitude = Fraction(exact(amplitude, "amplitude"))
        if not any(mode):
            return cls.constant(dim, amplitude)
        a = amplitude / 2
        neg = tuple(-x for x in mode)
        return cls(dim, {mode: GaussianRational(a), neg: GaussianRational(a)})

    @classmethod
    def sine(cls, dim, mode, amplitude=1):
        """amplitude * sin(m.x) = amplitude (e^{imx} - e^{-imx}) / 2i; the
        zero mode gives 0."""
        mode = tuple(mode)
        amplitude = Fraction(exact(amplitude, "amplitude"))
        if not any(mode):
            return cls.zero(dim)
        a = amplitude / 2
        neg = tuple(-x for x in mode)
        return cls(dim, {mode: GaussianRational(0, -a), neg: GaussianRational(0, a)})

    @classmethod
    def single_mode(cls, dim, mode, coeff=GR_ONE):
        """e^{i m.x} (complex; internal use)."""
        return cls(dim, {tuple(mode): coeff})

    # -- algebra -------------------------------------------------------------

    def derivative(self, axis):
        """Flat derivative d/dx^axis, mode-wise multiplication by i m_axis."""
        if not 0 <= axis < self.dim:
            raise ConfigurationError(f"derivative axis {axis} out of range")
        return FourierScalar(self.dim, K.dict_derivative(self.coeffs, axis), _validated=True)

    def derivative_terms(self, axis):
        """The terms (m, p, q, d) of d/dx^axis, unreduced: the coefficient
        (p' + i q') / d at mode m times i m_axis is (-q' m_axis + i p' m_axis) / d."""
        return [(m, -c.q * k, c.p * k, c.d) for m, c in self.coeffs.items() if (k := m[axis])]

    def second_derivative_terms(self, a, b):
        """The terms (m, p, q, d) of d/dx^a d/dx^b, unreduced: the coefficient
        (p' + i q') / d at mode m times (i m_a)(i m_b) = -m_a m_b."""
        return [(m, -c.p * k, -c.q * k, c.d) for m, c in self.coeffs.items()
                if (k := m[a] * m[b])]

    def shift_mode(self, delta):
        """Multiply by e^{i delta.x}."""
        return FourierScalar(self.dim, K.dict_shift(self.coeffs, tuple(delta)), _validated=True)

    def conjugate(self):
        return FourierScalar(
            self.dim,
            {tuple(-x for x in m): c.conjugate() for m, c in self.coeffs.items()},
            _validated=True,
        )

    # -- queries -------------------------------------------------------------

    def coeff(self, mode):
        return self.coeffs.get(tuple(mode), GaussianRational(0))

    def is_real(self):
        """c(-m) = conj c(m) at every mode m: the triple (p, q, d) of c(-m)
        is compared with (p, -q, d) of c(m), with no conjugate built."""
        coeffs = self.coeffs
        for m, c in coeffs.items():
            o = coeffs.get(tuple([-x for x in m]))
            if o is None or o.p != c.p or o.q != -c.q or o.d != c.d:
                return False
        return True

    def zero_mean(self):
        """The field minus its zero mode."""
        c = dict(self.coeffs)
        c.pop((0,) * self.dim, None)
        return FourierScalar(self.dim, c, _validated=True)

    def sorted_modes(self):
        return sorted(self.coeffs)

    def __repr__(self):
        terms = ", ".join(f"{m}: {c.re}+{c.im}i" for m, c in sorted(self.coeffs.items()))
        return f"FourierScalar({self.dim}, {{{terms}}})"


class TensorField:
    """Sparse covariant tensor field with FourierScalar components.

    symmetry_tag is advisory metadata ('none', 'fully_symmetric',
    'curvature_type'); `symmetry_witness` verifies it exactly.
    """

    __slots__ = ("dim", "rank", "components", "symmetry_tag")

    def __init__(self, dim, rank, components=None, symmetry_tag="none", _validated=False):
        self.dim = dim
        self.rank = rank
        comps = {}
        if components:
            for idx, f in components.items():
                idx = tuple(idx)
                if not _validated:
                    if len(idx) != rank or any(type(a) is not int or not 0 <= a < dim
                                               for a in idx):
                        raise ConfigurationError(f"bad multi-index {idx}")
                    if f.dim != dim:
                        raise ConfigurationError("component dim mismatch")
                if f.coeffs:
                    comps[idx] = f
        self.components = comps
        self.symmetry_tag = symmetry_tag

    @classmethod
    def zero(cls, dim, rank, symmetry_tag="none"):
        return cls(dim, rank, {}, symmetry_tag, _validated=True)

    def get(self, idx):
        return self.components.get(tuple(idx), FourierScalar.zero(self.dim))

    def _check(self, other):
        if self.dim != other.dim or self.rank != other.rank:
            raise ConfigurationError("tensor rank/dim mismatch")

    def _tag_after(self, other):
        return self.symmetry_tag if self.symmetry_tag == other.symmetry_tag else "none"

    def __add__(self, other):
        self._check(other)
        comps = K.dict_add(self.components, other.components)
        return TensorField(self.dim, self.rank, comps, self._tag_after(other), _validated=True)

    def __sub__(self, other):
        self._check(other)
        comps = K.dict_sub(self.components, other.components)
        return TensorField(self.dim, self.rank, comps, self._tag_after(other), _validated=True)

    def __neg__(self):
        comps = K.dict_neg(self.components)
        return TensorField(self.dim, self.rank, comps, self.symmetry_tag, _validated=True)

    def scale(self, c):
        comps = K.dict_scale(self.components, c)
        return TensorField(self.dim, self.rank, comps, self.symmetry_tag, _validated=True)

    def grad(self):
        """Flat covariant derivative: rank+1 with the new index in slot 0."""
        comps = {}
        for a in range(self.dim):
            for idx, f in self.components.items():
                d = f.derivative(a)
                if not d.is_zero():
                    comps[(a,) + idx] = d
        return TensorField(self.dim, self.rank + 1, comps, "none", _validated=True)

    # -- predicates ----------------------------------------------------------

    def is_zero(self):
        return not self.components

    def is_constant(self):
        return all(f.is_constant() for f in self.components.values())

    def is_real(self):
        """Every component is real, each distinct scalar object tested once:
        a symmetric field shares one scalar across the keys of an orbit."""
        distinct = {id(f): f for f in self.components.values()}
        return all(f.is_real() for f in distinct.values())

    def symmetry_witness(self, kind):
        """The first (multi-index, permuted multi-index) pair, in sorted
        order of the components, whose entries break the symmetry `kind`,
        or None.  'fully_symmetric' compares every permutation;
        'curvature_type' (rank 4 only) needs T_bacd = -T_abcd and
        T_abdc = T_abcd; any other kind declares no symmetry.

        Each pair is compared once.  Components are visited in sorted order,
        so a partner p < idx that is present was visited first and already
        compared with idx (both relations are symmetric), and passed, or the
        routine would have returned there; for p < idx only its presence is
        tested.  A partner p > idx is compared in full, and p == idx passes
        for the symmetric relations.  The (b, a) partner of an entry with
        a = b is still compared, so a nonzero T_aacd is caught.  The witness
        is the one a comparison of every pair from both sides returns."""
        comps = self.components
        if kind == "fully_symmetric":
            for idx in sorted(comps):
                f = comps[idx]
                for perm in permutations(idx):
                    if perm > idx:
                        g = comps.get(perm)
                        if g is not f and g != f:
                            return idx, perm
                    elif perm < idx and perm not in comps:
                        return idx, perm
        elif kind == "curvature_type":
            if self.rank != 4:
                raise ConfigurationError(
                    f"symmetry 'curvature_type' needs rank 4, got rank {self.rank}"
                )
            for idx in sorted(comps):
                a, b, c, d = idx
                f = comps[idx]
                p = (b, a, c, d)
                if p < idx:
                    if p not in comps:
                        return idx, p
                elif comps.get(p) != -f:
                    return idx, p
                p = (a, b, d, c)
                if p > idx:
                    if comps.get(p) != f:
                        return idx, p
                elif p < idx and p not in comps:
                    return idx, p
        return None

    def is_fully_symmetric(self):
        return self.symmetry_witness("fully_symmetric") is None

    def __eq__(self, other):
        if not isinstance(other, TensorField):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.rank == other.rank
            and self.components == other.components
        )

    def __hash__(self):
        return hash((self.dim, self.rank, frozenset(self.components.items())))

    def first_nonzero_witness(self):
        """(multi-index, mode) of some nonzero coefficient, or None."""
        for idx in sorted(self.components):
            f = self.components[idx]
            return idx, min(f.sorted_modes())
        return None

    def __repr__(self):
        return f"TensorField(dim={self.dim}, rank={self.rank}, nnz={len(self.components)})"


def raise_last(t: TensorField, sdata: SymplecticData) -> TensorField:
    """Replace the last covariant slot by a contravariant one.

    For underline-A with A-bar_{abc} = omega(A(e_a) e_b, e_c) this returns
    the mixed tensor A^p_{ab} stored at key (a, b, p):
    A^p_{ab} = sum_c omega^{cp} A-bar_{abc}.
    """
    return _map_last(t, *sdata.index_map(upper=True))


def lower_last(t: TensorField, sdata: SymplecticData) -> TensorField:
    """Inverse of raise_last: A-bar_{abc} = sum_p A^p_{ab} omega_{pc}."""
    return _map_last(t, *sdata.index_map(upper=False))


def _map_last(t, rows, monomial):
    """The tensor with last index c taken to p with the weight w[c][p], for
    the rows of `SymplecticData.index_map`.  A monomial map moves each scalar
    to its own key, times its weight (shared at 1, negated at -1); any other
    is summed in one `GaussianSums`."""
    if monomial:
        comps = {}
        for idx, f in t.components.items():
            (p, x), = rows[idx[-1]]
            comps[idx[:-1] + (p,)] = f.scale(x)
        return TensorField(t.dim, t.rank, comps, "none", _validated=True)
    acc = K.GaussianSums()
    for idx, f in t.components.items():
        for p, x in rows[idx[-1]]:
            acc.add(idx[:-1] + (p,), f.coeffs, weight=x)
    return TensorField(t.dim, t.rank, acc.finish(FourierScalar, t.dim), "none", _validated=True)


class TensorFieldCurve:
    """Truncated t-series whose coefficients are same-shape tensor fields."""

    __slots__ = ("cap", "dim", "rank", "orders")

    def __init__(self, cap, orders):
        orders = list(orders)
        if len(orders) != cap + 1:
            raise ConfigurationError("curve needs cap+1 order coefficients")
        dims = {t.dim for t in orders}
        ranks = {t.rank for t in orders}
        if len(dims) != 1 or len(ranks) != 1:
            raise ConfigurationError("curve orders must share dim and rank")
        self.cap = cap
        self.dim = dims.pop()
        self.rank = ranks.pop()
        self.orders = orders

    @classmethod
    def zero(cls, dim, rank, cap):
        return cls(cap, [TensorField.zero(dim, rank) for _ in range(cap + 1)])

    def _check(self, other):
        if self.cap != other.cap:
            raise ConfigurationError("curve cap mismatch")

    def __getitem__(self, k):
        return self.orders[k]

    def __add__(self, other):
        self._check(other)
        return TensorFieldCurve(self.cap, [a + b for a, b in zip(self.orders, other.orders)])

    def __sub__(self, other):
        self._check(other)
        return TensorFieldCurve(self.cap, [a - b for a, b in zip(self.orders, other.orders)])

    def __neg__(self):
        return TensorFieldCurve(self.cap, [-a for a in self.orders])

    def is_zero(self):
        return all(t.is_zero() for t in self.orders)

    def __eq__(self, other):
        if not isinstance(other, TensorFieldCurve):
            return NotImplemented
        return self.cap == other.cap and self.orders == other.orders

    def __repr__(self):
        return f"TensorFieldCurve(cap={self.cap}, rank={self.rank})"
