"""Test-only references: per-term and full-index forms of what the package
computes another way, counters on the curvature-type full view and on the
grouping of mixed tensors by upper index, and the forms of u and b, the
potential split and the Lie series on connections that read every entry,
which the sparse paths are compared with."""

from fractions import Fraction

from sympconn import curvature
from sympconn.fourier import TensorField


def accumulate(acc, key, value):
    """acc[key] += value in place, dropping zeros: the per-term sum of the
    references, a test-only copy of the former kernel."""
    if not value:
        return
    s = value if key not in acc else acc[key] + value
    if s:
        acc[key] = s
    else:
        del acc[key]


def is_curvature_type(t):
    """Test-only reference: rank 4, antisymmetric in slots (0,1), symmetric
    in slots (2,3)."""
    return t.rank == 4 and t.symmetry_witness("curvature_type") is None


def full_fill(half, dim):
    """The plain rank-4 field, tagged 'curvature_type', whose entries with
    a < b and c <= d are `half`: each entry is written at its four places
    by T_bacd = -T_abcd and T_abdc = T_abcd, with a fresh negation."""
    comps = {}
    for (a, b, c, d), f in half.items():
        for key, g in (((a, b, c, d), f), ((b, a, c, d), -f),
                       ((a, b, d, c), f), ((b, a, d, c), -f)):
            comps[key] = g
    return TensorField(dim, 4, comps, "curvature_type", _validated=True)


def upper_half(t):
    """The entries of a rank-4 field with a < b and c <= d."""
    return {k: f for k, f in t.components.items() if k[0] < k[1] and k[2] <= k[3]}


def count_full_views(monkeypatch):
    """A list that gets one entry, the half's size, per full view that a
    `CurvatureTypeField` builds while the monkeypatch lasts."""
    calls = []
    build = curvature._full_view

    def counted(half):
        calls.append(len(half))
        return build(half)

    monkeypatch.setattr(curvature, "_full_view", counted)
    return calls


def count_groupings(monkeypatch):
    """A list that gets each mixed tensor that `_by_upper` groups while the
    monkeypatch lasts; holding them keeps their ids distinct."""
    seen = []
    group = curvature._by_upper

    def counted(m):
        seen.append(m)
        return group(m)

    monkeypatch.setattr(curvature, "_by_upper", counted)
    return seen


# -- the forms that read every entry, kept to compare the sparse paths with -------


def u_b_orders_every_entry(conn, r_orders, u_head, start):
    """`curvature._u_b_orders` as it read omega: every entry of omega and of
    omega^{-1} tested per contraction, an empty coefficient map added for a
    zero b^(k), and rho and rho^2 over every order pair."""
    from fractions import Fraction

    from sympconn._kernel.pure import GaussianSums
    from sympconn.curvature import _covariant_orders, _field
    from sympconn.fourier import FourierScalar

    sdata = conn.sdata
    dim, n = sdata.dim, sdata.n
    hi, lo = sdata.omega_hi, sdata.omega_lo

    dr = _covariant_orders(conn, r_orders, start)
    u_new = []
    for t in dr:
        acc = GaussianSums()
        for (a, b, c), f in t.components.items():
            w = hi[a][b]
            if w:
                acc.add((c,), f.coeffs, weight=-w)
        u_new.append(_field(acc, dim, 1))
    u = u_head + u_new
    du = _covariant_orders(conn, u, start)
    rho = []
    for t in r_orders:
        acc = GaussianSums()
        for (a, b), f in t.components.items():
            for q in range(dim):
                w = hi[q][a]
                if w:
                    acc.add((q, b), f.coeffs, weight=w)
        rho.append(_field(acc, dim, 2))
    rho2 = []
    for k in range(start, len(rho)):
        acc = GaussianSums()
        for s in range(k + 1):
            for (p, q), f in rho[s].components.items():
                for (q2, b), g in rho[k - s].components.items():
                    if q2 == q:
                        acc.add_product((p, b), f.coeffs, g.coeffs)
        rho2.append(_field(acc, dim, 2))
    cconst = Fraction(1 + 2 * n, 2 * (1 + n))
    b_new = []
    for du_k, rho2_k in zip(du, rho2):
        acc = GaussianSums()
        for (a, bb), f in du_k.components.items():
            w = hi[a][bb]
            if w:
                acc.add((), f.coeffs, weight=w * Fraction(-1, 2 * n))
        for (p, q), f in rho2_k.components.items():
            if p == q:
                acc.add((), f.coeffs, weight=cconst / (2 * n))
        b_new.append(_field(acc, dim, 0))
    res1 = []
    for dr_k, u_k in zip(dr, u_new):
        acc = GaussianSums()
        for idx, f in dr_k.components.items():
            acc.add(idx, f.coeffs)
        for (c,), f in u_k.components.items():
            for a in range(dim):
                for bb in range(dim):
                    w = lo[a][bb]
                    if w:
                        w = w * Fraction(-1, 2 * n + 1)
                        acc.add((a, bb, c), f.coeffs, weight=w)
                        acc.add((a, c, bb), f.coeffs, weight=w)
        res1.append(acc.all_zero())
    res2 = []
    for du_k, rho2_k, b_k in zip(du, rho2, b_new):
        acc = GaussianSums()
        for idx, f in du_k.components.items():
            acc.add(idx, f.coeffs)
        for (p, bcol), f in rho2_k.components.items():
            for a in range(dim):
                w = lo[a][p]
                if w:
                    acc.add((a, bcol), f.coeffs, weight=w * cconst)
        b_k = b_k.get(()).coeffs
        for a in range(dim):
            for bb in range(dim):
                w = lo[a][bb]
                if w:
                    acc.add((a, bb), b_k, weight=-w)
        res2.append(acc.all_zero())
    ubar = []
    for t in u:
        acc = GaussianSums()
        for (c,), f in t.components.items():
            for l in range(dim):
                w = hi[c][l]
                if w:
                    acc.add(l, f.coeffs, weight=w * Fraction(-1, 1 + n))
        ubar.append(acc.finish(FourierScalar, dim))
    res3 = []
    for k, b_k in enumerate(b_new, start):
        acc = GaussianSums()
        b_k = b_k.get(()).coeffs
        for a in range(dim):
            acc.add_derivative((a,), b_k, a)
        for s in range(k + 1):
            for (p, a), f in r_orders[k - s].components.items():
                g = ubar[s].get(p)
                if g is not None:
                    acc.add_product((a,), g.coeffs, f.coeffs)
        res3.append(acc.all_zero())
    return u_new, b_new, (res1, res2, res3)


def rank_one_cube_dense(sdata, v):
    """`invariant.rank_one_cube` as it summed and multiplied: w = omega(., v)
    over every entry of omega, and S_bcd = w_b w_c w_d for every (b, c, d)."""
    from sympconn.rationals import Fraction

    v = tuple(Fraction(x) for x in v)
    dim = sdata.dim
    lo = sdata.omega_lo
    w = [sum(lo[b][p] * v[p] for p in range(dim)) for b in range(dim)]
    return tuple(
        tuple(tuple(w[b] * w[c] * w[d] for d in range(dim)) for c in range(dim))
        for b in range(dim)
    )


def potential_split_by_lookup(s):
    """`normalization.potential_split` as it read S: through `TensorField.get`
    and `FourierScalar.coeff`, a zero scalar and a zero coefficient built for
    each absent (triple, mode), each equation compared with a Gaussian
    rational built for it."""
    from sympconn.errors import NotExactCube, PreconditionError
    from sympconn.fourier import FourierScalar
    from sympconn.normalization import PotentialSplit
    from sympconn.rationals import GaussianRational

    i_cubed = GaussianRational(0, -1)
    if s.rank != 3 or not s.is_fully_symmetric():
        raise PreconditionError("potential_split needs a fully symmetric rank-3 field")
    dim = s.dim
    zero_mode = (0,) * dim
    modes = set()
    for f in s.components.values():
        modes.update(f.coeffs)
    modes.discard(zero_mode)
    u_coeffs = {}
    for m in sorted(modes):
        b = next(i for i, mi in enumerate(m) if mi)
        u_hat = s.get((b, b, b)).coeff(m) / (i_cubed * (m[b] ** 3))
        u_i_cubed = u_hat * i_cubed
        for p in range(dim):
            for q in range(p, dim):
                for r in range(q, dim):
                    want = u_i_cubed * (m[p] * m[q] * m[r])
                    if s.get((p, q, r)).coeff(m) != want:
                        raise NotExactCube(m, (p, q, r))
        if not u_hat.is_zero():
            u_coeffs[m] = u_hat
    potential = FourierScalar(dim, u_coeffs, _validated=True)
    if not potential.is_real():
        raise NotExactCube(zero_mode, (0, 0, 0), "potential is not real")
    zero_part = {}
    for idx, f in s.components.items():
        c = f.coeffs.get(zero_mode)
        if c is not None:
            zero_part[idx] = FourierScalar(dim, {zero_mode: c}, _validated=True)
    return PotentialSplit(potential, TensorField(dim, 3, zero_part, "fully_symmetric",
                                                 _validated=True))


def exp_lie_connection_summed(gens, gamma):
    """`series.exp_lie_connection` with every order of the result summed in
    one `GaussianSums`, a lone term of weight 1 included."""
    from fractions import Fraction

    from sympconn._kernel.pure import GaussianSums
    from sympconn.series import _LieData

    scalar, dim = gens[0].scalar, gens[0].dim
    data = [None] + [None if g.is_zero() else _LieData(g) for g in gens[1:]]

    def lie(curve, ddx=False):
        out = []
        for k in range(len(curve)):
            acc = GaussianSums()
            for s in range(1, k + 1):
                if data[s] is not None and curve[k - s]:
                    data[s].lie(curve[k - s], acc)
            if ddx and data[k] is not None:
                for idx, h in data[k].hessian.items():
                    acc.add_terms(idx, h)
            out.append(acc.finish(scalar, dim))
        return out

    sums = [GaussianSums() for _ in gamma]
    term, weight = gamma, Fraction(1)
    for j in range(len(gamma)):
        if j:
            term = lie(term, ddx=j == 1)
            if not any(term):
                break
            weight /= j
        for acc, order in zip(sums, term):
            for idx, f in order.items():
                acc.add(idx, f.coeffs, weight=weight)
    return [acc.finish(scalar, dim) for acc in sums]


def as_gaussian(a):
    """A coefficient map with `GaussianRational` values: a `Fraction` map as
    the same numbers (numerator + i 0) / denominator, the form in which
    `GaussianSums` once read every `Fraction` map; any other map as it is."""
    from sympconn.rationals import _make

    for c in a.values():
        if type(c) is Fraction:
            return {m: _make(c.numerator, 0, c.denominator) for m, c in a.items()}
        break
    return a


def fraction_rows(order_rows):
    """The int rows (den, rows) of `invariant.cube_rows` as the rows of
    Fractions they stand for: per a, {p: {b: v / den}}."""
    den, rows = order_rows
    return [{p: {b: Fraction(v, den) for b, v in row.items()} for p, row in r.items()}
            for r in rows]


def random_real_scalar_by_fractions(rng, dim, max_modes=3, mode_bound=2, zero_mean=True):
    """`generate.random_real_scalar` as it drew a term: a Fraction amplitude,
    compared `rng.random()` with Fraction(1, 2) and summed
    `FourierScalar.cosine` or `FourierScalar.sine` of it."""
    from sympconn.fourier import FourierScalar

    f = FourierScalar.zero(dim)
    for _ in range(rng.randint(1, max_modes)):
        m = tuple(rng.randint(-mode_bound, mode_bound) for _ in range(dim))
        if zero_mean and not any(m):
            continue
        amp = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        if not amp:
            continue
        if rng.random() < Fraction(1, 2):
            f = f + FourierScalar.cosine(dim, m, amp)
        else:
            f = f + FourierScalar.sine(dim, m, amp)
    return f


def rank_one_ladder_dense(sdata, cap, seed=0, scale_range=3):
    """`generate.rank_one_ladder` as it was built: dense Fraction multiples
    of `invariant.rank_one_cube`, read back by the dense constructor."""
    import random

    from sympconn.generate import omega_orthogonal_basis_vectors
    from sympconn.invariant import StructureMapCurve, rank_one_cube, zero_cube
    from sympconn.moduli import require_valid

    rng = random.Random(seed)
    vecs = omega_orthogonal_basis_vectors(sdata)
    cubes = [zero_cube(sdata.dim)]
    for _ in range(cap):
        v = vecs[rng.randrange(len(vecs))]
        c = Fraction(rng.randint(-scale_range, scale_range))
        base = rank_one_cube(sdata, v)
        cubes.append([[[c * x for x in row] for row in plane] for plane in base])
    curve = StructureMapCurve(sdata, cap, cubes)
    require_valid(curve)
    return curve


def validated_sum_ladder_dense(sdata, cap, seed=0):
    """`generate.validated_sum_ladder` as it was built: dense sums of
    Fraction multiples of `invariant.rank_one_cube`."""
    import random

    from sympconn.generate import omega_orthogonal_basis_vectors
    from sympconn.invariant import StructureMapCurve, rank_one_cube, zero_cube
    from sympconn.moduli import require_valid

    rng = random.Random(seed)
    vecs = omega_orthogonal_basis_vectors(sdata)
    dim = sdata.dim
    cubes = [zero_cube(dim)]
    for _ in range(cap):
        cube = zero_cube(dim)
        for v in rng.sample(vecs, rng.randint(1, len(vecs))):
            c = Fraction(rng.randint(-2, 2))
            base = rank_one_cube(sdata, v)
            cube = [[[cube[a][b][d] + c * base[a][b][d] for d in range(dim)]
                     for b in range(dim)] for a in range(dim)]
        cubes.append(cube)
    curve = StructureMapCurve(sdata, cap, cubes)
    require_valid(curve)
    return curve
