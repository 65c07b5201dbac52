"""Translation-invariant connections and formal curves thereof.

An invariant connection curve is determined by constant linear maps
B^(k): R^{2n} -> sp(2n, R) whose lowered cubes omega(B(e_a) e_b, e_c) are
fully symmetric.  The central executable fact: if the Ricci-type identity
holds order by order and 2n >= 4, then the curvature vanishes and
B^t(X) B^t(Y) = 0 (any violation is an implementation bug, not data).

A StructureMapCurve stores each order k once, as (den_k, entries_k): den_k
is the least positive integer that makes den_k B^(k) integral, and
entries_k maps every index triple, sorted or not, to its nonzero int in
den_k B^(k).  den_k is an Sp(2n, Z) invariant: C and C^{-1} are integral,
so pullback by either carries integral cubes to integral cubes.  Every
reader works on this form; `cubes` gives dense read-only views of it,
`DenseCube`s that keep the order they were read from, so that
`integral_cube` hands such a cube back as that order without a scan.

Every identity about products of structure maps is read off one table per
order, StructureMapCurve.products(k):

    P_k[a, b] = sum_{p+q=k} B^(p)(e_a) B^(q)(e_b),

kept sparse (nonzero Fraction entries only; the matrices are almost all
zero) and cached on the curve.  It is summed in ints, over the order pairs
whose cubes are both nonzero and the directions with a nonzero row, and
each nonzero sum is divided once by D_k, the lcm of the row-denominator
products.  From it come
  - validity, A^t(X) A^t(Y) = 0: P_k is empty (moduli.validity_check,
    euclidean.validity_check_cubes);
  - the curvature, R^(k)(e_a, e_b) = P_k[a, b] - P_k[b, a];
  - rho^(k) = sum_{i,b} (X_i)_b P_k[i, b] over the omega-dual basis X_i;
  - the left side of the Ricci-type identity for (e_a, e_b, e_c), column c
    of 2(n+1) P_k[a, b];
  - the flatness theorem's R = 0 and B^t(X) B^t(Y) = 0.

The algebra of one cube lives here as well: `cube_rows` gives, from the
stored form, the sparse rows {p: {b: v}} of each A(e_a) as ints over one
row denominator den_k L, with L the lcm of the denominators of omega^{-1}
(1 for the standard omega, computed once per omega): the one form in
which an endomorphism is read.  StructureMapCurve caches the rows per
order as rows(k) and multiplies them, as sparse int matrices, only inside
its product tables; moduli ranks the int rows for the Sp-invariants, and
the R^(2n) model (`euclidean`) reads them for psi^A, the structure field
X_A and the connection data Gamma(e_a, e_b) = A(e_a) e_b, dividing by the
row denominator where it builds a coefficient.  Its nilpotency check of
one cube A is the order-2 product table of the ladder (0, A, 0).

`structure_work` estimates, from the stored entries alone, the work of
the product tables; the command line refuses a curve past
MAX_STRUCTURE_WORK.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate as running_totals, chain, product
from math import lcm

from .curvature import ConnectionCurve
from .errors import ConfigurationError, InternalInconsistency, PreconditionError
from .fourier import FourierScalar, SymplecticData, TensorField
from .rationals import Fraction, exact_real


def zero_cube(dim):
    return tuple(
        tuple(tuple(Fraction(0) for _ in range(dim)) for _ in range(dim))
        for _ in range(dim)
    )


def integral_form(values):
    """(den, entries) of a map to nonzero rationals: den the least positive
    integer with every den v integral, entries the map to those ints."""
    den = lcm(*(v.denominator for v in values.values()))
    return den, {key: v.numerator * (den // v.denominator) for key, v in values.items()}


class DenseCube(tuple):
    """A dense cube B-bar[a][b][c] of Fractions as nested tuples, read from a
    stored order (den, entries), which it keeps as `stored`: handed back to
    `integral_cube`, it gives that form without a read of its entries.  The
    stored entries are shared, never copied: no reader mutates them."""

    def __new__(cls, dim, order):
        den, entries = order
        value = {v: Fraction(v, den) for v in set(entries.values())}
        flat = [Fraction(0)] * (dim * dim * dim)
        for (a, b, c), v in entries.items():
            flat[(a * dim + b) * dim + c] = value[v]
        rows = [tuple(flat[i:i + dim]) for i in range(0, len(flat), dim)]
        view = super().__new__(cls, (tuple(rows[i:i + dim]) for i in range(0, len(rows), dim)))
        view.stored = order
        return view


def integral_cube(dim, cube):
    """The stored form (den, entries) of a dense dim-cube of rationals.  A
    `DenseCube` of that dim gives the form it was read from at once; any
    other cube has its shape checked, a cube of any other shape being
    refused, and every entry read: one that `rationals.exact_real` refuses
    (a float, a bool or a Gaussian rational among them) is refused, as it is
    not an exact real rational."""
    if type(cube) is DenseCube and len(cube) == dim:
        return cube.stored
    if len(cube) != dim or any(len(plane) != dim or any(len(row) != dim for row in plane)
                               for plane in cube):
        raise ConfigurationError(f"a cube needs {dim} x {dim} x {dim} entries")
    flat = list(chain.from_iterable(chain.from_iterable(cube)))
    if not _EXACT_TYPES.issuperset(map(type, flat)):
        for i, x in enumerate(flat):
            exact_real(x, "cube entry", _slot(dim, i))
    return integral_form({_slot(dim, i): Fraction(x) for i, x in enumerate(flat) if x})


# The entry types every dense cube can hold at no further check.
_EXACT_TYPES = frozenset((int, Fraction))


def _slot(dim, i):
    """The index triple (a, b, c) of entry i of a flattened dim-cube."""
    a, bc = divmod(i, dim * dim)
    return (a, *divmod(bc, dim))


def _is_symmetric(entries):
    """Whether the cube of the nonzero entries {(a, b, c): v} is fully
    symmetric: every entry equals its (a b) and (b c) transposes, which
    generate all orders of (a, b, c), so a missing entry is caught too."""
    get = entries.get
    return all(get((b, a, c)) == v and get((a, c, b)) == v for (a, b, c), v in entries.items())


@lru_cache(maxsize=16)
def _upper_ints(sdata: SymplecticData):
    """(L, rows): L the lcm of the denominators of omega^{-1} (1 for the
    standard omega), and per c the nonzero (p, L omega^{cp}) as ints; once
    per omega while it is among the 16 last used."""
    hi, _ = sdata.index_map(upper=True)
    scale = lcm(*(w.denominator for row in hi for _, w in row))
    return scale, tuple(tuple((p, int(w * scale)) for p, w in row) for row in hi)


def cube_rows(sdata: SymplecticData, order):
    """(den, rows) for a lowered cube in stored form (den_k, entries): per
    basis direction a the nonzero rows {p: {b: v}} of the matrix of A(e_a),
    as ints over the one row denominator den = den_k L, with L the lcm of
    the denominators of omega^{-1}: (A(e_a))^p_b = sum_c omega^{cp} S_abc
    = v / den."""
    den, entries = order
    scale, hi = _upper_ints(sdata)
    acc = [{} for _ in range(sdata.dim)]
    for (a, b, c), v in entries.items():
        for p, h in hi[c]:
            row = acc[a].setdefault(p, {})
            row[b] = row.get(b, 0) + h * v
    return den * scale, [{p: nz for p, row in rows.items()
                          if (nz := {b: v for b, v in row.items() if v})} for rows in acc]


# Ceiling on `structure_work` for a structure-map curve the command line
# reads.  A dim-4 ladder with the rank-one cube on e_1 at every order, one
# entry per order, costs the most per unit: it passes the ceiling at cap
# 1146, and at cap 1145 (998740) `sympconn check` takes 0.4 s and `equiv
# --bound 1` of the file with itself 0.9 s on a 2-vCPU VM.  Denser cubes
# cost less per unit: a dim-8 ladder with omega(., v)^3 for v = (1, ..., 1),
# 512 entries per order, scores 787632 at cap 3 and is checked in 0.03 s.
# The tests' and the benchmark's ladders stay below 20000.
MAX_STRUCTURE_WORK = 1_000_000

# What each order 0..cap adds to `structure_work`, whatever its entries:
# the loops over orders, the dense matrices of the Sp-invariants and the
# reading of a dim^3 cube per order run on zero orders too.  At dim 16,
# where those cost the most, `equiv` spends 0.2 ms per order after loading.
STRUCTURE_WORK_PER_ORDER = 300


def structure_work(curve) -> int:
    """Sum over k <= cap of nnz_p nnz_q over p + q = k, where nnz_p counts
    the stored entries of order p: a bound on the int products of the
    order-k product table; plus STRUCTURE_WORK_PER_ORDER per order.  The
    pair sum runs over the nonzero orders p only, each against the running
    total of nnz up to cap - p, so it is linear in the cap, and it reads
    the stored entries only, before any row is built."""
    nnz = [len(entries) for _, entries in curve.orders]
    below = list(running_totals(nnz))
    pairs = sum(n * below[curve.cap - p] for p, n in enumerate(nnz) if n)
    return pairs + STRUCTURE_WORK_PER_ORDER * (curve.cap + 1)


class StructureMapCurve:
    """Per-order constant fully symmetric lowered cubes B-bar^(0..K), given
    dense (orders 0..K, or 1..K after a zero order 0) and stored once per
    order as `orders`, the list of (den_k, entries_k)."""

    __slots__ = ("sdata", "cap", "orders", "_cubes", "_rows", "_products", "_support")

    def __init__(self, sdata: SymplecticData, cap, cubes, validate=True):
        self._store(sdata, cap, [integral_cube(sdata.dim, c) for c in cubes], validate)

    @classmethod
    def from_orders(cls, sdata: SymplecticData, cap, orders):
        """The validated curve of cubes already in stored form, as
        `integral_form` makes them."""
        curve = cls.__new__(cls)
        curve._store(sdata, cap, orders, True)
        return curve

    def _store(self, sdata, cap, orders, validate):
        if len(orders) == cap:
            orders = [(1, {})] + orders
        if len(orders) != cap + 1:
            raise ConfigurationError("need one cube per order 0..K")
        if validate:
            for k, (_, entries) in enumerate(orders):
                if not _is_symmetric(entries):
                    raise ConfigurationError(f"order-{k} cube is not fully symmetric")
        self.sdata = sdata
        self.cap = cap
        self.orders = orders
        self._cubes = None
        self._rows = None
        self._products = None

    @property
    def dim(self):
        return self.sdata.dim

    @property
    def cubes(self):
        """The dense cubes B-bar^(k)[a][b][c], each a `DenseCube` of Fractions
        that keeps its stored order, in a new list; built from `orders` once
        and cached, with one Fraction per distinct entry value of an order."""
        if self._cubes is None:
            self._cubes = [DenseCube(self.dim, order) for order in self.orders]
        return list(self._cubes)

    def rows(self, k):
        """`cube_rows` of order k, (den, rows): the sparse int rows of each
        B^(k)(e_a) over one row denominator, built once per order and
        cached on the curve."""
        if self._rows is None:
            self._rows = [None] * (self.cap + 1)
        if self._rows[k] is None:
            self._rows[k] = cube_rows(self.sdata, self.orders[k])
        return self._rows[k]

    def products(self, k):
        """The order-k product table P_k[a, b] = sum_{p+q=k} B^(p)(e_a) B^(q)(e_b).

        Sparse: {(a, b): {(i, j): entry}} with nonzero Fraction entries only,
        keyed in sorted order; a pair whose sum vanishes has no key.  Summed
        in ints over D_k, the lcm of den_p den_q over the order pairs (p, q)
        whose cubes are both nonzero, the only pairs visited, and over the
        directions a and b with a nonzero row; each nonzero sum is divided
        by D_k once.  Cached on the curve, as is, per nonzero order, its row
        denominator and its nonzero rows, read from rows(p).
        """
        if self._products is None:
            self._products = [None] * (self.cap + 1)
            self._support = {}
            for p, (_, entries) in enumerate(self.orders):
                if entries:
                    den, rows = self.rows(p)
                    self._support[p] = den, [(a, r) for a, r in enumerate(rows) if r]
        if self._products[k] is None:
            support = self._support
            terms = []
            for p, (den, left) in support.items():
                if p > k:
                    break
                if k - p in support:
                    den_q, right = support[k - p]
                    terms.append((den * den_q, left, right))
            scale = lcm(*(d for d, _, _ in terms))
            sums = {}
            for d, left, right in terms:
                s = scale // d
                # sums[a, b][(i, j)] += s (L R)_ij over the nonzero rows
                # {i: {l: v}} of L = B^(p)(e_a) and R = B^(q)(e_b)
                for a, lrows in left:
                    for b, rrows in right:
                        acc = sums.get((a, b))
                        for i, row in lrows.items():
                            for l, v in row.items():
                                col = rrows.get(l)
                                if col:
                                    if acc is None:
                                        acc = sums[(a, b)] = {}
                                    v *= s
                                    for j, w in col.items():
                                        acc[(i, j)] = acc.get((i, j), 0) + v * w
            table = {}
            for ab in sorted(sums):
                entries = {ij: Fraction(v, scale) for ij, v in sums[ab].items() if v}
                if entries:
                    table[ab] = entries
            self._products[k] = table
        return self._products[k]

    def is_zero(self):
        return not any(entries for _, entries in self.orders)

    def __eq__(self, other):
        if not isinstance(other, StructureMapCurve):
            return NotImplemented
        return (
            self.sdata == other.sdata
            and self.cap == other.cap
            and self.orders == other.orders
        )

    def __repr__(self):
        return f"StructureMapCurve(dim={self.dim}, cap={self.cap})"


def rank_one_cube(sdata: SymplecticData, v):
    """S_{bcd} = omega(e_b, v) omega(e_c, v) omega(e_d, v) for v != 0.

    Always fully symmetric with B(X) B(Y) = 0, since the image of every
    B(X) is the line through v and omega(B(Y) Z, v) = 0.  w = omega(., v)
    is summed over the nonzero entries of omega and v, and only its nonzero
    entries are multiplied; the rows and planes with no nonzero entry are
    one shared zero row and plane.
    """
    dim = sdata.dim
    w = _rank_one_weights(sdata, v)
    zero = Fraction(0)
    zero_row = (zero,) * dim
    cube = [(zero_row,) * dim] * dim
    for b, x in w:
        plane = [zero_row] * dim
        for c, y in w:
            xy, row = x * y, [zero] * dim
            for d, z in w:
                row[d] = xy * z
            plane[c] = tuple(row)
        cube[b] = tuple(plane)
    return tuple(cube)


def rank_one_entries(sdata: SymplecticData, v):
    """The nonzero entries {(b, c, d): S_bcd} of `rank_one_cube(sdata, v)`,
    in index order, with no dense cube built."""
    w = _rank_one_weights(sdata, v)
    return {(b, c, d): x * y * z for b, x in w for c, y in w for d, z in w}


def _rank_one_weights(sdata: SymplecticData, v):
    """The nonzero entries (b, omega(e_b, v)) of w = omega(., v), in order of
    b, summed over the nonzero entries of omega and v; v = 0 is refused."""
    v = tuple(Fraction(exact_real(x, "vector entry", a)) for a, x in enumerate(v))
    if not any(v):
        raise PreconditionError("rank_one_cube needs a nonzero vector")
    rows, _ = sdata.index_map(upper=False)
    w = [(b, sum(x * v[p] for p, x in row if v[p])) for b, row in enumerate(rows)]
    return [(b, x) for b, x in w if x]


def rho_curve(B: StructureMapCurve):
    """rho^(k) = sum_{p+q=k} sum_i B^(p)(X^i) B^(q)(X_i), per order as the
    sparse {(i, j): entry} map of `products`, zeros dropped.

    The dual pair is X^i = e_i with X_i solved from omega(X^i, X_j) =
    delta^i_j (the result is basis independent), so rho^(k) is
    sum_{i,b} (X_i)_b P_k[i, b].
    """
    lower = B.sdata.dual_basis()
    out = []
    for k in range(B.cap + 1):
        acc = {}
        for (i, b), entries in B.products(k).items():
            x = lower[i][b]
            if x:
                for ij, v in entries.items():
                    acc[ij] = acc.get(ij, 0) + x * v
        out.append({ij: v for ij, v in acc.items() if v})
    return out


def _ricci_rhs(lo, rho):
    """The four-term right-hand side of the Ricci-type identity for every
    basis triple (X, Y, Z) = (e_a, e_b, e_c), sparse:
    {(a, b, c): {i: value}} for
    omega(X,Y) rho Z + omega(X, rho Y) Z + omega(X,Z) rho Y + omega(X, rho Z) Y,
    with rho the sparse {(i, j): entry} map of `rho_curve`.
    """
    if not rho:
        return {}
    dim = len(lo)
    cols = [{} for _ in range(dim)]
    # sigma[a][c] = omega(e_a, rho e_c)
    sigma = [[0] * dim for _ in range(dim)]
    for (p, c), v in rho.items():
        cols[c][p] = v
        for a in range(dim):
            if lo[a][p]:
                sigma[a][c] += lo[a][p] * v
    out = {}
    for a, b, c in product(range(dim), repeat=3):
        vec = {}
        for w, col in ((lo[a][b], cols[c]), (lo[a][c], cols[b])):
            if w:
                for i, v in col.items():
                    vec[i] = vec.get(i, 0) + w * v
        for w, i in ((sigma[a][b], c), (sigma[a][c], b)):
            if w:
                vec[i] = vec.get(i, 0) + w
        vec = {i: v for i, v in vec.items() if v}
        if vec:
            out[(a, b, c)] = vec
    return out


def invariant_ricci_type_check(B: StructureMapCurve):
    """(flag, witness) for the order-by-order constant Ricci-type identity:
    sum_{p+q=k} 2(n+1) B^(p)(X) B^(q)(Y) Z equals the four-term omega/rho
    combination, over all basis triples.  The left side for (a, b, c) is
    column c of 2(n+1) P_k[a, b]; the witness is the least failing triple."""
    sdata = B.sdata
    n = sdata.n
    for k, rho_k in enumerate(rho_curve(B)):
        lhs = {}
        for (a, b), entries in B.products(k).items():
            for (i, c), v in entries.items():
                lhs.setdefault((a, b, c), {})[i] = 2 * (n + 1) * v
        rhs = _ricci_rhs(sdata.omega_lo, rho_k)
        bad = [t for t in lhs.keys() | rhs.keys() if lhs.get(t) != rhs.get(t)]
        if bad:
            return False, {"order": k, "triple": min(bad)}
    return True, None


def flatness_theorem_check(B: StructureMapCurve):
    """Assert curvature == 0 and sum_{p+q=k} B^(p)(X) B^(q)(Y) == 0.

    Precondition: the Ricci-type identity holds and 2n >= 4.  A violation
    here would falsify the invariant flatness theorem, so it raises
    InternalInconsistency rather than returning a negative verdict.
    """
    ok, witness = invariant_ricci_type_check(B)
    if not ok:
        raise PreconditionError(f"input is not Ricci type: {witness}")
    dim = B.dim
    tables = [B.products(k) for k in range(B.cap + 1)]
    report = {"curvature_zero": [], "bb_zero": []}
    for k, table in enumerate(tables):
        # R^(k)(e_a, e_b) = P_k[a, b] - P_k[b, a]
        bad = [
            (a, b)
            for a, b in product(range(dim), repeat=2)
            if table.get((a, b)) != table.get((b, a))
        ]
        report["curvature_zero"].append(not bad)
        if bad:
            raise InternalInconsistency(
                f"invariant Ricci-type curve has nonzero curvature at order {k}, pair {bad[0]}"
            )
    for k, table in enumerate(tables):
        if table:
            a, b = min(table)
            raise InternalInconsistency(
                f"B^t(X)B^t(Y) != 0 at order {k}, pair ({a}, {b})"
            )
        report["bb_zero"].append(True)
    report["ok"] = True
    return report


def embed_invariant(B: StructureMapCurve) -> ConnectionCurve:
    """The structure map as a torus connection curve with constant modes."""
    if B.orders[0][1]:
        raise PreconditionError("embedding requires a zero order-0 cube")
    dim = B.dim
    abar = [
        TensorField(dim, 3, {key: FourierScalar.constant(dim, Fraction(entries[key], den))
                             for key in sorted(entries)}, "fully_symmetric", _validated=True)
        for den, entries in B.orders
    ]
    return ConnectionCurve(B.sdata, B.cap, abar)


def from_connection_curve(conn: ConnectionCurve) -> StructureMapCurve:
    """Extract the constant cubes of an invariant connection curve."""
    orders = []
    for t in conn.abar:
        if not t.is_constant():
            raise PreconditionError("connection curve is not invariant")
        values = {}
        for key, f in t.components.items():
            v = f.constant_part()
            if not v.is_real():
                raise PreconditionError("invariant cube must be real")
            values[key] = v.re
        orders.append(integral_form(values))
    return StructureMapCurve.from_orders(conn.sdata, conn.cap, orders)
