"""Formal connection curves on the torus and all curvature-derived objects.

A connection curve is the flat base plus sum_k t^k A^(k), where each
underline-A^(k) (all indices lowered with omega) is a fully symmetric
rank-3 tensor field; this is exactly the symplectic torsion-free condition.
All identities here are exact, order by order in t.  Every sum over terms is
one `GaussianSums` accumulator per order, which adds coefficient maps, their
products and their derivatives as Gaussian-integer triples and reduces each
coefficient once.

`curvature_bundle` is the one builder of R, the Ricci curve r, E, W = R - E
and, on a Ricci-type curve, u, b and their residual verdicts, each by a
private loop over orders from a start order.  `ConnectionCurve.curvature`
caches R alone, for `bianchi_check` and the flatness check of normalization.

The curvature-type tensors R, E and W (T_bacd = -T_abcd, T_abdc = T_abcd) are
each stored as their half, the entries with a < b and c <= d, in a
`CurvatureTypeField`; its readers apply the two rules, and the full
`components` are built only when a reader outside this module asks for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import accumulate as running_totals

from ._kernel.pure import GaussianSums
from .errors import ConfigurationError, InternalInconsistency, PreconditionError
from .fourier import (
    FourierScalar,
    SymplecticData,
    TensorField,
    TensorFieldCurve,
    raise_last,
)
from .rationals import Fraction


class ConnectionCurve:
    """Flat base plus a truncated series of symmetric 3-tensor differences."""

    __slots__ = ("sdata", "cap", "abar", "_mixed", "_upper", "_curvature")

    def __init__(self, sdata: SymplecticData, cap, abar, validate=True, mixed=None):
        abar = list(abar)
        if len(abar) == cap:
            # orders 1..K given; prepend the zero order-0 term
            abar = [TensorField.zero(sdata.dim, 3, "fully_symmetric")] + abar
        if len(abar) != cap + 1:
            raise ConfigurationError("need one rank-3 field per order 1..K")
        if validate:
            if not abar[0].is_zero():
                raise ConfigurationError("order-0 difference tensor must vanish")
            for k, t in enumerate(abar):
                if t.dim != sdata.dim or t.rank != 3:
                    raise ConfigurationError("difference tensors must be rank 3")
                if not t.is_fully_symmetric():
                    raise ConfigurationError(
                        f"order-{k} difference tensor is not fully symmetric"
                    )
                if not t.is_real():
                    raise ConfigurationError(f"order-{k} difference tensor is not real")
        self.sdata = sdata
        self.cap = cap
        self.abar = abar
        self._mixed = mixed
        self._upper = []
        self._curvature = None

    @classmethod
    def flat(cls, sdata, cap):
        return cls(sdata, cap, [], validate=False) if cap == 0 else cls(
            sdata, cap, [TensorField.zero(sdata.dim, 3, "fully_symmetric") for _ in range(cap)]
        )

    @property
    def dim(self):
        return self.sdata.dim

    @property
    def mixed(self):
        """Per-order mixed tensors A^p_{ab} stored at key (a, b, p): the
        `raise_last` of each order, built on first read unless the caller
        passed them in as `mixed`, for a curve it made by lowering them."""
        if self._mixed is None:
            self._mixed = [raise_last(t, self.sdata) for t in self.abar]
        return self._mixed

    @property
    def by_upper(self):
        """Each order of `mixed` grouped by its upper index (`_by_upper`),
        built on first read: R, r and the second Bianchi identity read it."""
        return self._grouped(self.cap + 1)

    def _grouped(self, n):
        """The groupings of orders 0..n - 1, each order grouped once: a
        grouping a `head` asked for first is kept for later reads."""
        upper = self._upper
        if len(upper) < n:
            upper.extend(_by_upper(m) for m in self.mixed[len(upper):n])
        return upper

    def head(self, k):
        """Orders 0..k as a curve of cap k, unvalidated, sharing this curve's
        fields, mixed tensors and groupings; orders above k are not read."""
        head = ConnectionCurve(self.sdata, k, self.abar[:k + 1], validate=False,
                               mixed=self.mixed[:k + 1])
        head._upper = self._grouped(k + 1)[:k + 1]
        return head

    @property
    def curvature(self):
        """The lowered curvature curve R (`_curvature_orders` from order 0),
        computed once."""
        if self._curvature is None:
            self._curvature = TensorFieldCurve(self.cap, _curvature_orders(self, 0))
        return self._curvature

    def is_invariant(self):
        return all(t.is_constant() for t in self.abar)

    def __eq__(self, other):
        if not isinstance(other, ConnectionCurve):
            return NotImplemented
        return (
            self.sdata == other.sdata
            and self.cap == other.cap
            and self.abar == other.abar
        )

    def __repr__(self):
        return f"ConnectionCurve(dim={self.dim}, cap={self.cap})"


class CurvatureTypeField(TensorField):
    """A rank-4 field of curvature type stored as its half: the nonzero
    entries T_abcd with a < b and c <= d.  Every other entry is read off by
    T_bacd = -T_abcd and T_abdc = T_abcd, and T_aacd = 0.  The least key of
    each orbit {(a, b, c, d), (b, a, c, d), (a, b, d, c), (b, a, d, c)} is its
    half key, so `is_zero` and `first_nonzero_witness` read the half and
    agree with the full tensor.  `components`, the full dict, is built by
    `_full_view` on first read and kept."""

    __slots__ = ("half", "_full")

    def __init__(self, dim, half):
        self.dim = dim
        self.rank = 4
        self.symmetry_tag = "curvature_type"
        self.half = half
        self._full = None

    @property
    def components(self):
        if self._full is None:
            self._full = _full_view(self.half)
        return self._full

    def is_zero(self):
        return not self.half

    def first_nonzero_witness(self):
        if not self.half:
            return None
        idx = min(self.half)
        return idx, min(self.half[idx].coeffs)


def _full_view(half):
    """Every nonzero entry of the curvature-type tensor with the given half,
    each half key followed by its (a, b) swap, its (c, d) swap and both; the
    (c, d) swap shares the scalar of its half key."""
    comps = {}
    for key, f in half.items():
        a, b, c, d = key
        g = -f
        comps[key] = f
        comps[(b, a, c, d)] = g
        if c != d:
            comps[(a, b, d, c)] = f
            comps[(b, a, d, c)] = g
    return comps


# Ceiling on `curve_work` for a curve the command line reads.  Random curves
# on T^4 (three modes per order) reach it at cap 22; at cap 21 (194148, seed
# 7) `curvature_bundle` + `bianchi_check` take 0.6-0.7 s on a 2-vCPU VM, at
# cap 48 (877761) 8 s.  Curves whose terms share few modes cost less per
# unit: a T^6 cap-3 rank-one ladder moved by random three-mode Hamiltonians
# at orders 1 and 2 scores 203255 and takes 0.08 s.  The benchmark's inputs
# and the curves the tests give the command line stay below 5000.
MAX_CURVE_WORK = 200_000

# What each order 0..cap adds to `curve_work`, whatever its terms: the loops
# over orders and order pairs run even where every order is zero.  On the
# same VM `sympconn normalize` of the flat T^4 curve, the slowest command on
# it, takes 0.64 s at cap 600, so the flat curve reaches the ceiling at cap
# 666.
WORK_PER_ORDER = 300


def curve_work(conn: ConnectionCurve) -> int:
    """Sum over k <= cap of nnz(A^(s)) nnz(A^(s')) over s + s' = k, where nnz
    counts the Fourier terms of all components: the coefficient products of
    the order-k Gamma.Gamma terms of the curvature; plus WORK_PER_ORDER per
    order.  The pair sum runs over the nonzero orders s only, each against
    the running total of nnz up to cap - s, so it is linear in the cap.
    Cheap, and known before any curvature is computed."""
    nnz = [sum(len(f.coeffs) for f in t.components.values()) for t in conn.abar]
    below = list(running_totals(nnz))
    pairs = sum(n * below[conn.cap - s] for s, n in enumerate(nnz) if n)
    return pairs + WORK_PER_ORDER * (conn.cap + 1)


def _field(acc: GaussianSums, dim, rank) -> TensorField:
    """The tensor field of the finished sums of an accumulator."""
    return TensorField(dim, rank, acc.finish(FourierScalar, dim), _validated=True)


def _covariant_orders(conn: ConnectionCurve, orders, start):
    """Orders start..cap of the covariant derivative of the covariant tensor
    curve with the given orders 0..cap, new slot first.

    Order k: the flat derivative of the order-k coefficient minus the usual
    Gamma term for every slot, Cauchy-mixed over the connection orders; it
    reads orders k - s of the curve for s = 0..k."""
    dim, rank = conn.dim, orders[0].rank
    mixed = conn.mixed
    out = []
    for k in range(start, conn.cap + 1):
        acc = GaussianSums()
        for idx, f in orders[k].components.items():
            for a in range(dim):
                acc.add_derivative((a,) + idx, f.coeffs, a)
        for s in range(1, k + 1):
            m = mixed[s]
            base = orders[k - s]
            if m.is_zero() or base.is_zero():
                continue
            for (a, b, p), g in m.components.items():
                for idx, f in base.components.items():
                    for j, bj in enumerate(idx):
                        if bj == p:
                            key = (a,) + idx[:j] + (b,) + idx[j + 1 :]
                            acc.add_product(key, g.coeffs, f.coeffs, -1)
        out.append(_field(acc, dim, rank + 1))
    return out


def _by_upper(m: TensorField):
    """A mixed A^q_{zc} (key (z, c, q)) grouped as {q: [(z, c, A^q_{zc})]}."""
    groups = {}
    for (z, c, q), g in m.components.items():
        groups.setdefault(q, []).append((z, c, g))
    return groups


def _curvature_orders(conn: ConnectionCurve, start):
    """Orders start..cap of the lowered curvature curve
    R_{abcd} = omega(R(e_a, e_b) e_c, e_d), built on a < b only: omega is
    constant and each A^(s)(e_a) lies in sp(omega), so
      R^(k)_{abcd} = d_a Abar^(k)_{bcd} - d_b Abar^(k)_{acd}
        + sum_{s=1..k-1} sum_q (Abar^(s)_{aqd} A^(k-s)q_{bc} - Abar^(s)_{bqd} A^(k-s)q_{ac}),
    and first-pair antisymmetry, R_{bacd} = -R_{abcd}, holds by construction.
    Last-pair symmetry is not built in, so it is checked at every order,
    always on (InternalInconsistency otherwise), on the a < b half that was
    built: R_abcd = R_abdc there.  This is the whole curvature-type check:
    the half holds no key with a = b, and T_bacd = -T_abcd is how the other
    keys are read.  Each order is returned as a `CurvatureTypeField` holding
    the half's entries with c <= d.  Order k reads A^(s) for s <= k only."""
    dim, abar = conn.dim, conn.abar
    by_upper = conn.by_upper
    out = []
    for k in range(start, conn.cap + 1):
        acc = GaussianSums()
        for (x, c, d), f in abar[k].components.items():
            for z in range(x):
                acc.add_derivative((z, x, c, d), f.coeffs, z)
            for z in range(x + 1, dim):
                acc.add_derivative((x, z, c, d), f.coeffs, z, -1)
        for s in range(1, k):
            groups = by_upper[k - s]
            for (x, q, d), g1 in abar[s].components.items():
                for y, c, g2 in groups.get(q, ()):
                    if x < y:
                        acc.add_product((x, y, c, d), g1.coeffs, g2.coeffs)
                    elif y < x:
                        acc.add_product((y, x, c, d), g1.coeffs, g2.coeffs, -1)
        half = acc.finish(FourierScalar, dim)
        upper = {}
        for key, f in half.items():
            a, b, c, d = key
            # a pair c != d is compared from its c < d side; the c > d side
            # only needs its partner present
            if c <= d:
                upper[key] = f
                ok = c == d or half.get((a, b, d, c)) == f
            else:
                ok = (a, b, d, c) in half
            if not ok:
                raise InternalInconsistency(f"curvature symmetries violated at order {k}")
        out.append(CurvatureTypeField(dim, upper))
    return out


def _ricci_orders(conn: ConnectionCurve, start):
    """Orders start..cap of the Ricci tensor curve
    r(X, Y) = Trace[Z -> R(X, Z)Y], expanded directly.

    Tracing the curvature formula gives, per order,
    r^(k)_ab = -sum_c d_c A^(k)c_ab + sum_{s+s'=k} Trace A^(s)(e_a) A^(s')(e_b);
    the term Trace[Z -> (grad_X A)(Z)Y] drops out because mixed symplectic
    difference tensors are trace free.  The sign of the derivative term
    follows from the trace definition and is cross-checked against the
    independent omega-contraction of R in ricci_from_curvature.  Order k
    reads A^(s) for s <= k only.
    """
    dim = conn.dim
    mixed = conn.mixed
    by_upper = conn.by_upper
    out = []
    for k in range(start, conn.cap + 1):
        acc = GaussianSums()
        for (a, b, q), f in mixed[k].components.items():
            acc.add_derivative((a, b), f.coeffs, q, -1)
        for s in range(1, k):
            groups = by_upper[k - s]
            # Trace A(X) A(Y) = sum_{p,q} A^p_{Xq} A^q_{Yp}
            for (a, q, p), g1 in mixed[s].components.items():
                for b, p2, g2 in groups.get(q, ()):
                    if p2 == p:
                        acc.add_product((a, b), g1.coeffs, g2.coeffs)
        out.append(_field(acc, dim, 2))
    return out


def ricci_from_curvature(r4: TensorFieldCurve, sdata: SymplecticData) -> TensorFieldCurve:
    """Independent path: trace the lowered curvature, r_ab = R^q_{aqb}."""
    hi = sdata.omega_hi
    out = []
    for t in r4.orders:
        acc = GaussianSums()
        for (a, q, b, d), f in t.components.items():
            w = hi[d][q]
            if w:
                acc.add((a, b), f.coeffs, weight=w)
        out.append(_field(acc, sdata.dim, 2))
    return TensorFieldCurve(r4.cap, out)


@lru_cache(maxsize=8)
def _e_targets(sdata: SymplecticData):
    """Per r entry (x, y) with x <= y, the (key, weight) pairs it adds to E
    on the keys (a, b, c, d) with a < b and c <= d, weights summed per key
    and scaled by -1/(2(n+1)).  For x < y the pairs of (y, x) are folded in,
    which is exact because r is symmetric.  Depends on omega only, so it is
    built once per omega."""
    lo, dim = sdata.omega_lo, sdata.dim
    pref = Fraction(-1, 2 * (sdata.n + 1))
    entries = [(a, b, lo[a][b]) for a in range(dim) for b in range(dim) if lo[a][b]]
    targets = {}
    for x in range(dim):
        for y in range(x, dim):
            acc = {}
            for xx, yy in {(x, y), (y, x)}:
                for a, b, w in entries:
                    for key, c in (
                        ((a, b, xx, yy), 2 * w),  # 2 w(a,b) r(c,d)
                        ((a, xx, b, yy), w),      # w(a,c) r(b,d)
                        ((a, xx, yy, b), w),      # w(a,d) r(b,c)
                        ((xx, a, b, yy), -w),     # -w(b,c) r(a,d)
                        ((xx, a, yy, b), -w),     # -w(b,d) r(a,c)
                    ):
                        if key[0] < key[1] and key[2] <= key[3]:
                            acc[key] = acc.get(key, 0) + c
            targets[(x, y)] = tuple((key, pref * c) for key, c in acc.items() if c)
    return targets


def _ricci_part_orders(orders, sdata: SymplecticData, start):
    """E for the Ricci orders start, start + 1, ..., given as `orders`: the
    five-term omega (x) ricci combination with prefactor -1/(2(n+1)):
    E_abcd = -(2 w_ab r_cd + w_ac r_bd + w_ad r_bc - w_bc r_ad - w_bd r_ac)
             / (2(n+1)).

    The formula is antisymmetric in (a, b) because omega is, and symmetric in
    (c, d) when r is.  r is symmetric because every underline-A^(k) is fully
    symmetric: -d_c A^c_ab is symmetric in (a, b), and the trace terms of
    `_ricci_orders` pair Tr A^(s)(e_a) A^(s')(e_b) with the (s', s) term.
    This is asserted at every order (InternalInconsistency otherwise).  So E
    is curvature type and is accumulated only on its half, the keys with
    a < b and c <= d, reading r only on x <= y; it is returned as a
    `CurvatureTypeField` per order.
    """
    targets = _e_targets(sdata)
    dim = sdata.dim
    out = []
    for k, t in enumerate(orders, start):
        if t.symmetry_witness("fully_symmetric") is not None:
            raise InternalInconsistency(f"Ricci tensor is not symmetric at order {k}")
        acc = GaussianSums()
        for (x, y), f in t.components.items():
            if x <= y:
                for key, c in targets[(x, y)]:
                    acc.add(key, f.coeffs, weight=c)
        out.append(CurvatureTypeField(dim, acc.finish(FourierScalar, dim)))
    return out


def _w_orders(r_orders, e_orders, dim):
    """W = R - E, the remainder of R past its Ricci part, order by order for
    the orders of R and E given.

    R is curvature type, as `_curvature_orders` asserts (always on), and so
    is E (see `_ricci_part_orders`); both are halves on the keys a < b,
    c <= d, and so is W, subtracted half from half.  A key of R alone shares
    R's scalar, a key of E alone holds E's negated, and a key of both holds
    the difference when it is not zero."""
    w = []
    for rt, et in zip(r_orders, e_orders):
        r, ee = rt.half, et.half
        half = {}
        for key, f in r.items():
            x = ee.get(key)
            if x is None:
                half[key] = f
            elif f := f - x:
                half[key] = f
        for key, x in ee.items():
            if key not in r:
                half[key] = -x
        w.append(CurvatureTypeField(dim, half))
    return w


@cache
def _triple_signs(dim):
    """{(x, y): {z: (sorted (x, y, z), odd)}} for x < y and z not in {x, y};
    odd marks an odd permutation from (z, x, y) to sorted order, which
    happens exactly when z lies between x and y.  Built once per dim; the
    readers do not change it."""
    return {
        (x, y): {
            z: (tuple(sorted((x, y, z))), x < z < y)
            for z in range(dim)
            if z != x and z != y
        }
        for x in range(dim)
        for y in range(x + 1, dim)
    }


def bianchi_check(conn: ConnectionCurve):
    """Both Bianchi identities, exactly, per order.

    Returns {"first": [bool per order], "second": [...], "ok": bool}.

    First identity: the cyclic sum over (a, b, c) of R_{abcd}.  Second
    identity: S_{eabcd} = the cyclic sum over (e, a, b) of (nabla_e R)_{abcd}.
    Neither sum is built in full.  The reduction rests on three facts:

    * every underline-A^(s) is fully symmetric, i.e. the connection is
      torsion free; `ConnectionCurve` checks this when the curve is built;
    * R is antisymmetric in its first pair of slots, by construction in
      `_curvature_orders`, and
    * R is symmetric in its last pair, which `_curvature_orders` checks at
      every order and raises otherwise, on the a < b half it builds.

    So R is read from its half alone, the entries R_{xycd} with x < y and
    c <= d: R_{xydc} is the same scalar, and R_{yx..} is minus R_{xy..}.
    A cyclic sum over three slots of a tensor antisymmetric in the last two
    of them is totally antisymmetric, so both sums are read only on index
    triples e < a < b (a < b < c for the first).  The first sum takes
    R_{xycd} at (c, d) and, when c < d, at (d, c) too.  In the second sum
    the Gamma terms on the slots a and b cancel (A^q_{ea} is symmetric in e,
    a and R_{qbcd} = -R_{bqcd}), which leaves the exterior covariant
    derivative d^nabla R:
      S^(k)_{eabcd} = sum_cyc d_e R^(k)_{abcd}
                      - sum_{s=1..k} sum_cyc (U_{cd} + U_{dc}),
      U_{cd} = sum_q A^(s)q_{ec} R^(k-s)_{abqd},
    symmetric in (c, d), so it is read only for c <= d.  A half entry
    R_{xyqd} feeds U through the upper index q and, when q < d, through d
    as R_{xydq}.  Only components R_{xy..} with x < y are visited, each with
    the directions z not in {x, y}, and A^(s) is grouped by its upper index
    once per curve (`ConnectionCurve.by_upper`).  No rank-5 tensor is built,
    and each sum is one exact `GaussianSums` whose verdict is `all_zero`.
    """
    r4 = conn.curvature
    triples = _triple_signs(conn.dim)
    by_upper = conn.by_upper
    first = []
    for t in r4.orders:
        acc = GaussianSums()
        for (x, y, c, d), f in t.half.items():
            place = triples[(x, y)]
            for p, q in ((c, d), (d, c)) if c != d else ((c, d),):
                hit = place.get(p)
                if hit is not None:
                    tri, odd = hit
                    acc.add(tri + (q,), f.coeffs, -1 if odd else 1)
        first.append(acc.all_zero())
    second = []
    for k in range(conn.cap + 1):
        acc = GaussianSums()
        for (x, y, c, d), f in r4[k].half.items():
            for z, (tri, odd) in triples[(x, y)].items():
                acc.add_derivative(tri + (c, d), f.coeffs, z, -1 if odd else 1)
        for s in range(1, k + 1):
            groups = by_upper[s]
            for (x, y, c1, c2), f in r4[k - s].half.items():
                place = triples[(x, y)]
                for q, d in ((c1, c2), (c2, c1)) if c1 != c2 else ((c1, c2),):
                    for z, c, g in groups.get(q, ()):
                        hit = place.get(z)
                        if hit is None:
                            continue
                        tri, odd = hit
                        # a term of U_{cd}: S reads U_{cd} + U_{dc} at the sorted
                        # pair, so it counts twice when c == d
                        sign = 2 if c == d else 1
                        acc.add_product(tri + ((c, d) if c < d else (d, c)), g.coeffs, f.coeffs,
                                        sign if odd else -sign)
        second.append(acc.all_zero())
    ok = all(first) and all(second)
    return {"first": first, "second": second, "ok": ok}


def _rho_orders(r_orders, sdata: SymplecticData):
    """Endomorphism rho with r(X, Y) = omega(X, rho Y), for each order of r
    given; key (p, b) = rho^p_b = sum_a omega^{pa} r_ab over the nonzero
    omega^{pa}: column a of the antisymmetric omega^{-1} is its row a of
    `SymplecticData.index_map` negated.  A zero order of r is its own rho."""
    cols = [[(q, -w) for q, w in row] for row in sdata.index_map(upper=True)[0]]
    out = []
    for t in r_orders:
        if not t.components:
            out.append(t)
            continue
        acc = GaussianSums()
        for (a, b), f in t.components.items():
            for q, w in cols[a]:
                acc.add((q, b), f.coeffs, weight=w)
        out.append(_field(acc, sdata.dim, 2))
    return out


def _endo_square_orders(rho, dim, start):
    """Orders start..cap of rho^2 for the orders 0..cap of rho."""
    out = []
    for k in range(start, len(rho)):
        acc = GaussianSums()
        for s in range(k + 1):
            for (p, q), f in rho[s].components.items():
                for (q2, b), g in rho[k - s].components.items():
                    if q2 == q:
                        acc.add_product((p, b), f.coeffs, g.coeffs)
        out.append(_field(acc, dim, 2))
    return out


@lru_cache(maxsize=8)
def _u_b_weights(sdata: SymplecticData):
    """The omega weights of `_u_b_orders`, each times its constant factor,
    read off the nonzero rows of `SymplecticData.index_map` (ints where
    integral) once per omega.  Both matrices are antisymmetric, so a column
    is a row negated."""
    n = sdata.n
    hi, _ = sdata.index_map(upper=True)
    lo, _ = sdata.index_map(upper=False)
    cconst = Fraction(1 + 2 * n, 2 * (1 + n))
    lo_terms = [(a, b, w) for a, row in enumerate(lo) for b, w in row]
    return (
        [{b: -w for b, w in row} for row in hi],  # -omega^{ab}
        [{b: w * Fraction(-1, 2 * n) for b, w in row} for row in hi],
        cconst / (2 * n),
        [(a, b, w * Fraction(-1, 2 * n + 1)) for a, b, w in lo_terms],
        [[(a, -w * cconst) for a, w in row] for row in lo],  # cconst omega_ap
        [(a, b, -w) for a, b, w in lo_terms],
        [[(l, w * Fraction(-1, 1 + n)) for l, w in row] for row in hi],
    )


def _u_b_orders(conn: ConnectionCurve, r_orders, u_head, start):
    """Orders start..cap of the 1-form curve u and the function curve b of a
    Ricci-type curve, and of the residual verdicts of their three defining
    equations, from all orders of r and the orders of u below start
    (u_head).  Order k of each reads orders <= k of r, u and A only.

    The contraction constants below are derived once from the defining
    equations (with sum_q omega^{pq} omega_{ql} = delta and
    sum_ab omega^{ab} omega_{ab} = -2n):
      u_c = -omega^{ab} (nabla r)_{abc}
      b   = -(omega^{ab} (nabla u)_{ab} - (1+2n)/(2(1+n)) Tr rho^2) / 2n
    All three defining equations are then re-verified exactly; a nonzero
    residual means the input was not Ricci type (or a convention fault).

    Every contraction with omega or omega^{-1} runs over their nonzero
    entries, with the weights of `_u_b_weights`, and no empty coefficient
    map is added: a zero b^(k) adds no terms and a zero ubar^(s) no
    products.  Each residual verdict is `all_zero` of the same sums as a
    contraction over every entry would give.
    """
    sdata = conn.sdata
    dim = sdata.dim
    u_at, b_at, rho2_diag, res1_terms, rho2_cols, b_terms, ubar_rows = _u_b_weights(sdata)

    dr = _covariant_orders(conn, r_orders, start)

    u_new = []
    for t in dr:
        acc = GaussianSums()
        for (a, b, c), f in t.components.items():
            w = u_at[a].get(b)
            if w:
                acc.add((c,), f.coeffs, weight=w)
        u_new.append(_field(acc, dim, 1))
    u = u_head + u_new

    du = _covariant_orders(conn, u, start)
    rho2 = _endo_square_orders(_rho_orders(r_orders, sdata), dim, start)

    # b = -(sum_ab omega^{ab} (nabla u)_{ab} - cconst Tr rho^2) / 2n
    b_new = []
    for du_k, rho2_k in zip(du, rho2):
        acc = GaussianSums()
        for (a, bb), f in du_k.components.items():
            w = b_at[a].get(bb)
            if w:
                acc.add((), f.coeffs, weight=w)
        for (p, q), f in rho2_k.components.items():
            if p == q:
                acc.add((), f.coeffs, weight=rho2_diag)
        b_new.append(_field(acc, dim, 0))

    # residual of (nabla r) equation
    res1 = []
    for dr_k, u_k in zip(dr, u_new):
        acc = GaussianSums()
        for idx, f in dr_k.components.items():
            acc.add(idx, f.coeffs)
        for (c,), f in u_k.components.items():
            for a, bb, w in res1_terms:
                acc.add((a, bb, c), f.coeffs, weight=w)
                acc.add((a, c, bb), f.coeffs, weight=w)
        res1.append(acc.all_zero())

    # residual of (nabla u) equation
    res2 = []
    for du_k, rho2_k, b_k in zip(du, rho2, b_new):
        acc = GaussianSums()
        for idx, f in du_k.components.items():
            acc.add(idx, f.coeffs)
        for (p, bcol), f in rho2_k.components.items():
            for a, w in rho2_cols[p]:
                acc.add((a, bcol), f.coeffs, weight=w)
        if b_k.components:
            b_k = b_k.components[()].coeffs
            for a, bb, w in b_terms:
                acc.add((a, bb), b_k, weight=w)
        res2.append(acc.all_zero())

    # residual of the differential-of-b equation; ubar_l = -omega^{cl} u_c / (1 + n)
    ubar = []
    for t in u:
        if not t.components:
            ubar.append({})
            continue
        acc = GaussianSums()
        for (c,), f in t.components.items():
            for l, w in ubar_rows[c]:
                acc.add(l, f.coeffs, weight=w)
        ubar.append(acc.finish(FourierScalar, dim))
    res3 = []
    for k, b_k in enumerate(b_new, start):
        acc = GaussianSums()
        if b_k.components:
            b_k = b_k.components[()].coeffs
            for a in range(dim):
                acc.add_derivative((a,), b_k, a)
        for s in range(k + 1):
            if ubar[s]:
                for (p, a), f in r_orders[k - s].components.items():
                    g = ubar[s].get(p)
                    if g is not None:
                        acc.add_product((a,), g.coeffs, f.coeffs)
        res3.append(acc.all_zero())

    return u_new, b_new, (res1, res2, res3)


@dataclass
class CurvatureBundle:
    """All curvature-derived curves of one connection curve."""

    R: TensorFieldCurve
    r: TensorFieldCurve
    E: TensorFieldCurve
    W: TensorFieldCurve
    u: TensorFieldCurve | None
    b: TensorFieldCurve | None
    residuals: dict | None


def curvature_bundle(conn: ConnectionCurve, carry=None) -> CurvatureBundle:
    """R, r, E and W of a connection curve; u, b and the residual verdicts
    of their defining equations too when the curve is of Ricci type (W
    vanishes at every order), where a nonzero residual raises
    InternalInconsistency.  The one builder of these curves.

    carry = (bundle, start), as `normalization.recurrence_step` returns it,
    holds the bundle of a curve of cap start - 1 or more that agrees with
    conn below order start.  Only orders start..cap are then computed; the
    orders below start of R, r, E, W, u, b and of the residual verdicts are
    the carried bundle's.  This is exact: order j of each depends only on
    A^(s) for s <= j.  The checks of a carried order ran when it was built,
    and those of the orders computed here run as they do without a carry.
    Without a carry R is `conn.curvature`.
    """
    carried, start = carry or (None, 0)
    cap, sdata = conn.cap, conn.sdata

    def joined(name, new):
        """A curve of carried's orders below start, then the new ones."""
        return TensorFieldCurve(cap, getattr(carried, name).orders[:start] + new if start else new)

    r4 = joined("R", _curvature_orders(conn, start)) if start else conn.curvature
    r2 = joined("r", _ricci_orders(conn, start))
    e = _ricci_part_orders(r2.orders[start:], sdata, start)
    w = joined("W", _w_orders(r4.orders[start:], e, sdata.dim))
    e = joined("E", e)
    if not w.is_zero():
        return CurvatureBundle(r4, r2, e, w, None, None, None)
    if start and carried.u is None:
        raise PreconditionError("the carried bundle has no u and b below the start order")
    u, b, flags = _u_b_orders(conn, r2.orders, carried.u.orders[:start] if start else [], start)
    # the residual verdicts per order of the three defining equations, by
    # name, and whether all of them hold
    names = ("ricci_derivative", "u_derivative", "b_differential")
    flags = [carried.residuals[name][:start] + new if start else new
             for name, new in zip(names, flags)]
    residuals = dict(zip(names, flags), ok=all(map(all, flags)))
    if not residuals["ok"]:
        raise InternalInconsistency("u/b residuals nonzero on a Ricci-type curve")
    return CurvatureBundle(r4, r2, e, w, joined("u", u), joined("b", b), residuals)


def require_ricci_type(bundle: CurvatureBundle):
    """Raise PreconditionError unless the bundle's W vanishes at every
    order, naming the first order where it does not and the first nonzero
    entry there."""
    for k, t in enumerate(bundle.W.orders):
        if not t.is_zero():
            raise PreconditionError(
                f"curve is not of Ricci type: first failing order {k}, "
                f"witness {t.first_nonzero_witness()}"
            )
