from fractions import Fraction
from itertools import permutations, product

import pytest

from sympconn import curvature
from sympconn._kernel.pure import dict_sub
from sympconn.curvature import (
    bianchi_check,
    curvature_bundle,
    require_ricci_type,
)
from sympconn.errors import ConfigurationError, InternalInconsistency, PreconditionError
from sympconn.fourier import (
    FourierScalar,
    SymplecticData,
    TensorField,
    TensorFieldCurve,
    lower_last,
)
from sympconn.serialize import json_text, tensor_to_json
from sympconn.generate import (
    conjugated_flat_fixture,
    gradient_curve,
    random_connection_curve,
)

from references import (
    accumulate,
    count_full_views,
    count_groupings,
    full_fill,
    is_curvature_type,
    ricci_from_curvature,
    upper_half,
)


def test_curvature_symmetries():
    conn = random_connection_curve(11, dim=4, cap=2)
    r4 = curvature_bundle(conn).R
    for t in r4.orders:
        assert t.is_real()
        assert is_curvature_type(t)


def constant_tensor(dim, rank, array):
    """A dense rank-r nested sequence of rationals as a constant tensor
    field, as a test-only helper."""
    comps = {}
    for idx in product(range(dim), repeat=rank):
        v = array
        for a in idx:
            v = v[a]
        if v:
            comps[idx] = FourierScalar.constant(dim, Fraction(v))
    return TensorField(dim, rank, comps)


def nabla_omega_curve(conn):
    """Covariant derivative of omega, as a test-only reference; identically
    zero for every valid curve."""
    omega_field = constant_tensor(conn.dim, 2, conn.sdata.omega_lo)
    omega_curve = TensorFieldCurve(
        conn.cap,
        [omega_field] + [TensorField.zero(conn.dim, 2) for _ in range(conn.cap)],
    )
    return TensorFieldCurve(conn.cap, curvature._covariant_orders(conn, omega_curve.orders, 0))


def test_omega_is_parallel():
    conn = random_connection_curve(12, dim=4, cap=2)
    assert nabla_omega_curve(conn).is_zero()


def test_ricci_matches_trace_of_curvature():
    """The independently computed Ricci curve must agree with the omega-trace
    of the full curvature: r_ab = sum_q R^q_{aqb}."""
    for seed in range(4):
        conn = random_connection_curve(seed, dim=4, cap=2)
        bundle = curvature_bundle(conn)
        assert bundle.r == ricci_from_curvature(bundle.R, conn.sdata)


@pytest.mark.parametrize("dim, rank", [(6, 3), (4, 2)], ids=["dim", "rank"])
def test_a_difference_tensor_of_the_wrong_shape_is_refused_naming_its_order(dim, rank):
    """A dim-6 field on a dim-4 omega and a rank-2 field are each refused
    with the order, the dim and rank wanted and the dim and rank given."""
    with pytest.raises(ConfigurationError) as err:
        curvature.ConnectionCurve(SymplecticData.standard(4), 2,
                                  [TensorField.zero(4, 3), TensorField.zero(dim, rank)])
    assert str(err.value) == ("order-2 difference tensor must have dim 4 and rank 3, "
                              f"got dim {dim} and rank {rank}")


def test_ew_reconstruction_and_trace_free_w():
    conn = random_connection_curve(13, dim=4, cap=2)
    bundle = curvature_bundle(conn)
    for k in range(conn.cap + 1):
        assert bundle.E[k] + bundle.W[k] == bundle.R[k]
    assert ricci_from_curvature(bundle.W, conn.sdata).is_zero()


def test_bianchi_identities():
    for seed in range(3):
        assert bianchi_check(random_connection_curve(seed + 40, dim=4, cap=2))["ok"]


def _sum_vanishes(terms):
    acc = {}
    for idx, f in terms:
        acc[idx] = acc[idx] + f if idx in acc else f
    return all(f.is_zero() for f in acc.values())


def reference_bianchi(conn, r4=None):
    """Both identities from their defining sums, over every index: the cyclic
    sum of R_{abcd} over (a, b, c), and the cyclic sum over (e, a, b) of the
    full rank-5 covariant derivative (nabla_e R)_{abcd}.  R is the curve's
    own curvature unless a full-index r4 is given."""
    if r4 is None:
        r4 = conn.curvature
    first = [
        _sum_vanishes(
            (key, f)
            for (a, b, c, d), f in t.components.items()
            for key in ((a, b, c, d), (c, a, b, d), (b, c, a, d))
        )
        for t in r4.orders
    ]
    second = [
        _sum_vanishes(
            (key, f)
            for (e, a, b, c, d), f in t.components.items()
            for key in ((e, a, b, c, d), (b, e, a, c, d), (a, b, e, c, d))
        )
        for t in curvature._covariant_orders(conn, r4.orders, 0)
    ]
    return {"first": first, "second": second, "ok": all(first) and all(second)}


BIANCHI_CURVES = [
    ("dim4-cap2-seed0", lambda: random_connection_curve(0, dim=4, cap=2)),
    ("dim4-cap2-seed21", lambda: random_connection_curve(21, dim=4, cap=2)),
    ("dim4-cap3-seed1", lambda: random_connection_curve(1, dim=4, cap=3)),
    ("dim4-cap3-seed65", lambda: random_connection_curve(65, dim=4, cap=3)),
    ("dim6-cap2-seed2", lambda: random_connection_curve(2, dim=6, cap=2)),
    ("conjugated-flat-4", lambda: conjugated_flat_fixture(4)[2]),
    ("conjugated-flat-dim6", lambda: conjugated_flat_fixture(6, dim=6, cap=2)[2]),
]


@pytest.mark.parametrize("make", [m for _, m in BIANCHI_CURVES],
                         ids=[name for name, _ in BIANCHI_CURVES])
def test_bianchi_check_matches_the_full_sums(make):
    conn = make()
    report = bianchi_check(conn)
    assert report == reference_bianchi(conn)
    assert report["ok"]


def _perturb_curvature(conn, order, entries):
    """Add entries {index: scalar}, a curvature-type tensor, to the cached
    curvature at one order: its entries with a < b and c <= d are added to
    the half that the curvature stores."""
    r4 = conn.curvature
    delta = TensorField(conn.dim, 4, entries)
    assert is_curvature_type(delta)
    orders = list(r4.orders)
    half = dict(orders[order].half)
    for key, f in upper_half(delta).items():
        accumulate(half, key, f)
    orders[order] = curvature.CurvatureTypeField(conn.dim, half)
    conn._curvature = TensorFieldCurve(conn.cap, orders)


@pytest.mark.parametrize("cd", [(2, 2), (0, 0)])
def test_bianchi_check_flags_a_curvature_that_is_not_closed(cd):
    """cos(x^3 + x^4) on R_{12cd} and its antisymmetric partner has
    d_3 R_{12cd} != 0, so d^nabla R fails at the order it was put in.  On
    R_{1211} the first identity still holds."""
    conn = random_connection_curve(0, dim=4, cap=3)
    f = FourierScalar.cosine(4, (0, 0, 1, 1))
    _perturb_curvature(conn, 2, {(0, 1) + cd: f, (1, 0) + cd: -f})
    report = bianchi_check(conn)
    assert report == reference_bianchi(conn)
    assert report["second"][:3] == [True, True, False]
    assert not report["ok"]
    if cd == (0, 0):
        assert report["first"] == [True] * 4


def test_bianchi_check_flags_a_curvature_without_the_cyclic_symmetry():
    """A constant on R_{1234} and its symmetry partners breaks the first
    identity: the cyclic sum over (1, 2, 3) is R_{1234}."""
    conn = random_connection_curve(21, dim=4, cap=2)
    one = FourierScalar.constant(4, 1)
    _perturb_curvature(conn, 1, {
        (0, 1, 2, 3): one, (1, 0, 2, 3): -one, (0, 1, 3, 2): one, (1, 0, 3, 2): -one,
    })
    report = bianchi_check(conn)
    assert report == reference_bianchi(conn)
    assert report["first"] == [True, False, True]
    assert not report["ok"]


def test_bundle_and_bianchi_group_each_order_by_upper_index_once(monkeypatch):
    """R, r and the second Bianchi identity read one grouping of each mixed
    order, built once per curve."""
    conn = random_connection_curve(5, dim=4, cap=3)
    seen = count_groupings(monkeypatch)
    curvature_bundle(conn)
    bianchi_check(conn)
    assert [id(m) for m in seen] == [id(m) for m in conn.mixed]


def test_bianchi_check_builds_no_covariant_derivative(monkeypatch):
    def forbidden(*args):
        raise AssertionError("bianchi_check called _covariant_orders")

    monkeypatch.setattr(curvature, "_covariant_orders", forbidden)
    assert bianchi_check(random_connection_curve(40, dim=4, cap=2))["ok"]


def test_flat_curve_has_zero_curvature():
    flat, psi, moved = conjugated_flat_fixture(3)
    assert all(t.is_zero() for t in curvature_bundle(moved).R.orders)


def test_conjugated_flat_is_ricci_type_with_zero_u_b():
    _, _, moved = conjugated_flat_fixture(5)
    bundle = curvature_bundle(moved)
    assert bundle.W.is_zero()
    assert require_ricci_type(bundle) is None
    assert bundle.residuals["ok"]
    assert bundle.u.is_zero()
    assert bundle.b.is_zero()


def test_gradient_curve_is_ricci_type():
    sd = SymplecticData.standard(4)
    conn = gradient_curve(sd, 2, FourierScalar.cosine(4, (1, 0, 0, 0)), 1)
    assert curvature_bundle(conn).W.is_zero()


def test_require_ricci_type_names_failing_order():
    conn = random_connection_curve(3, dim=4, cap=2)  # generic: not Ricci type
    bundle = curvature_bundle(conn)
    assert not bundle.W.is_zero()
    order = next(k for k, t in enumerate(bundle.W.orders) if not t.is_zero())
    with pytest.raises(PreconditionError, match=f"order {order}"):
        require_ricci_type(bundle)


def test_low_order_vanishing_on_ricci_type():
    _, _, moved = conjugated_flat_fixture(8, dim=4, cap=3)
    bundle = curvature_bundle(moved)
    for k in (1, 2):
        assert bundle.r[k].is_zero()
        assert bundle.R[k].is_zero()
        assert bundle.u[k].is_zero()
        assert bundle.b[k].is_zero()


def old_ew_split(r4, r2, sdata):
    """Reference: the five-term E accumulated on every index, W = R - E by
    the full subtraction."""
    lo, dim = sdata.omega_lo, sdata.dim
    pref = Fraction(-1, 2 * (sdata.n + 1))
    entries = [(a, b, lo[a][b]) for a in range(dim) for b in range(dim) if lo[a][b]]
    e_orders = []
    for t in r2.orders:
        acc = {}
        for (x, y), f in t.components.items():
            for a, b, w in entries:
                for key, c in (((a, b, x, y), 2 * w), ((a, x, b, y), w), ((a, x, y, b), w),
                               ((x, a, b, y), -w), ((x, a, y, b), -w)):
                    accumulate(acc, key, f.scale(pref * c))
        e_orders.append(TensorField(dim, 4, acc, "curvature_type", _validated=True))
    e = TensorFieldCurve(r2.cap, e_orders)
    return e, r4 - e


# P is unimodular, so (1/2) P^T omega P is a non-standard rational omega.
_P = ((1, 2, 0, 1), (0, 1, 1, 0), (0, 0, 1, 3), (0, 0, 0, 1))
SD_RATIONAL = SymplecticData([
    [Fraction(sum(_P[k][i] * w * _P[l][j]
                  for k, row in enumerate(SymplecticData.standard(4).omega_lo)
                  for l, w in enumerate(row)), 2) for j in range(4)]
    for i in range(4)
])


def _rational_omega_curve(seed, cap=2):
    from random import Random

    from sympconn.generate import random_symmetric_field

    rng = Random(seed)
    return curvature.ConnectionCurve(
        SD_RATIONAL, cap, [random_symmetric_field(rng, 4, triples=3) for _ in range(cap)])


EW_CURVES = [
    ("random-dim4-seed3", lambda: random_connection_curve(3, dim=4, cap=3)),
    ("random-dim4-seed13", lambda: random_connection_curve(13, dim=4, cap=2)),
    ("random-dim6-seed2", lambda: random_connection_curve(2, dim=6, cap=2)),
    ("conjugated-dim4", lambda: conjugated_flat_fixture(4)[2]),
    ("conjugated-dim6", lambda: conjugated_flat_fixture(6, dim=6, cap=2)[2]),
    ("rational-omega", lambda: _rational_omega_curve(7)),
]


@pytest.mark.parametrize("make", [m for _, m in EW_CURVES], ids=[n for n, _ in EW_CURVES])
def test_ew_split_matches_the_full_index_reference(make):
    conn = make()
    bundle = curvature_bundle(conn)
    r4, r2, e, w = bundle.R, bundle.r, bundle.E, bundle.W
    want_e, want_w = old_ew_split(r4, r2, conn.sdata)
    assert e == want_e and w == want_w
    assert [t.symmetry_tag for t in e.orders + w.orders] == [
        t.symmetry_tag for t in want_e.orders + want_w.orders]
    if make is EW_CURVES[-1][1]:
        assert not conn.sdata.is_standard() and not w.is_zero()


def test_ricci_part_asserts_a_symmetric_ricci_tensor():
    """E is built on half its indices only because r is symmetric; a
    non-symmetric r is a fault, never a wrong E."""
    sd = SymplecticData.standard(4)
    one = FourierScalar.constant(4, 1)
    r2 = [TensorField.zero(4, 2), TensorField(4, 2, {(0, 1): one, (1, 0): one.scale(2)})]
    with pytest.raises(InternalInconsistency, match="Ricci tensor is not symmetric at order 1"):
        curvature._ricci_part_orders(r2, sd, 0)


def reference_curvature_mixed(conn):
    """The mixed curvature R^p_{abc} at key (a, b, c, p), accumulated on
    every ordered (a, b) from the mixed difference tensors:
    R^p_{abc} = d_a A^p_{bc} + sum_q A^(s)p_{aq} A^(k-s)q_{bc} - (a <-> b)."""
    mixed = conn.mixed
    out = []
    for k in range(conn.cap + 1):
        acc = {}
        for (b, c, p), f in mixed[k].components.items():
            for a in range(conn.dim):
                d = f.derivative(a)
                accumulate(acc, (a, b, c, p), d)
                accumulate(acc, (b, a, c, p), -d)
        for s in range(1, k):
            for (a, q, p), g1 in mixed[s].components.items():
                for (b, c, q2), g2 in mixed[k - s].components.items():
                    if q2 == q:
                        accumulate(acc, (a, b, c, p), g1 * g2)
                        accumulate(acc, (b, a, c, p), -(g1 * g2))
        out.append(TensorField(conn.dim, 4, acc, _validated=True))
    return TensorFieldCurve(conn.cap, out)


def reference_curvature_curve(conn):
    """R_{abcd} = sum_p R^p_{abc} omega_{pd}: the mixed curvature, lowered."""
    mixed = reference_curvature_mixed(conn)
    return TensorFieldCurve(conn.cap, [lower_last(t, conn.sdata) for t in mixed.orders])


CURVATURE_CURVES = [
    (f"{kind}-dim{dim}-cap{cap}", make, dim, cap)
    for dim in (4, 6)
    for cap in (2, 3, 4)
    for kind, make in (
        ("random", lambda dim, cap: random_connection_curve(10 * dim + cap, dim=dim, cap=cap)),
        ("conjugated", lambda dim, cap: conjugated_flat_fixture(dim + cap, dim=dim, cap=cap)[2]),
    )
] + [
    (f"rational-omega-cap{cap}", lambda dim, cap: _rational_omega_curve(cap, cap), 4, cap)
    for cap in (2, 3, 4)
]


@pytest.mark.parametrize("make,dim,cap", [c[1:] for c in CURVATURE_CURVES],
                         ids=[c[0] for c in CURVATURE_CURVES])
def test_curvature_curve_matches_the_lowered_mixed_reference(make, dim, cap):
    conn = make(dim, cap)
    r4 = curvature_bundle(conn).R
    want = reference_curvature_curve(conn)
    assert r4 == want
    assert [t.symmetry_tag for t in r4.orders] == ["curvature_type"] * (cap + 1)
    assert all(is_curvature_type(t) for t in want.orders)
    if conn.sdata is SD_RATIONAL:
        assert not want.is_zero()


def test_curvature_curve_checks_the_last_pair_symmetry():
    """Only the first-pair antisymmetry is built in: a mixed tensor that is
    not the raised Abar breaks R_abcd = R_abdc, which is always checked."""
    conn = random_connection_curve(1, dim=4, cap=3)
    orders = list(conn.mixed)
    orders[1] = orders[1] + TensorField(4, 3, {(0, 0, 0): FourierScalar.constant(4, 1)})
    conn._mixed = orders
    with pytest.raises(InternalInconsistency, match="curvature symmetries violated at order 2$"):
        curvature_bundle(conn)


@pytest.mark.parametrize("upper", [3, 0], ids=["c>d", "c<d"])
def test_curvature_curve_refuses_a_last_pair_entry_without_its_partner(upper):
    """A mixed tensor with the single entry A^0_{1c} (not the raised Abar)
    puts Abar_{00d} A^0_{1c} on R_{01cd} and nothing on R_{01dc}.  With
    Abar_{000} only, that entry has c = 3 > d = 0; with Abar_{003} and its
    permutations, the entry (0, 1, 0, 3) has c < d.  Either side alone is
    caught."""
    sd = SymplecticData.standard(4)
    idx = (0, 0, 0) if upper == 3 else (0, 0, 3)
    one = FourierScalar.constant(4, 1)
    abar = TensorField(4, 3, {p: one for p in set(permutations(idx))})
    conn = curvature.ConnectionCurve(sd, 2, [abar, TensorField.zero(4, 3)])
    conn._mixed = [TensorField.zero(4, 3), TensorField(4, 3, {(1, upper, 0): one}),
                   TensorField.zero(4, 3)]
    with pytest.raises(InternalInconsistency, match="curvature symmetries violated at order 2$"):
        curvature_bundle(conn)


def test_curvature_binds_no_term_by_term_kernel():
    """Every sum in `curvature` goes through the one exact accumulator,
    `GaussianSums`; no per-term Gaussian-rational kernel is bound there."""
    for name in ("accumulate", "dict_convolve", "dict_neg"):
        assert not hasattr(curvature, name)


# -- the accumulator's sums against per-term GaussianRational copies -----------------


def reference_ricci_curve(conn):
    """The Ricci curve as first written, summing FourierScalars with `accumulate`."""
    mixed = conn.mixed
    out = []
    for k in range(conn.cap + 1):
        acc = {}
        for (a, b, q), f in mixed[k].components.items():
            accumulate(acc, (a, b), -f.derivative(q))
        for s in range(1, k):
            for (a, q, p), g1 in mixed[s].components.items():
                for (b, p2, q2), g2 in mixed[k - s].components.items():
                    if p2 == p and q2 == q:
                        accumulate(acc, (a, b), g1 * g2)
        out.append(TensorField(conn.dim, 2, acc))
    return TensorFieldCurve(conn.cap, out)


def reference_covariant_derivative(conn, t_curve):
    mixed = conn.mixed
    out = []
    for k in range(conn.cap + 1):
        acc = {}
        for idx, f in t_curve[k].components.items():
            for a in range(conn.dim):
                accumulate(acc, (a,) + idx, f.derivative(a))
        for s in range(1, k + 1):
            for (a, b, p), g in mixed[s].components.items():
                for idx, f in t_curve[k - s].components.items():
                    for j, bj in enumerate(idx):
                        if bj == p:
                            accumulate(acc, (a,) + idx[:j] + (b,) + idx[j + 1:], -(g * f))
        out.append(TensorField(conn.dim, t_curve.rank + 1, acc))
    return TensorFieldCurve(conn.cap, out)


def reference_extract_u_b(conn):
    """u, b and the three residual verdicts of `_u_b_orders` from the same
    formulas, each sum a FourierScalar `accumulate`."""
    sdata, cap = conn.sdata, conn.cap
    dim, n, hi, lo = sdata.dim, sdata.n, sdata.omega_hi, sdata.omega_lo
    r2 = reference_ricci_curve(conn)
    dr = reference_covariant_derivative(conn, r2)

    def field(rank, terms):
        acc = {}
        for key, f in terms:
            accumulate(acc, key, f)
        return TensorField(dim, rank, acc)

    u = TensorFieldCurve(cap, [
        field(1, (((c,), f.scale(-hi[a][b])) for (a, b, c), f in t.components.items()))
        for t in dr.orders])
    du = reference_covariant_derivative(conn, u)
    rho = [field(2, (((q, b), f.scale(hi[q][a])) for (a, b), f in t.components.items()
                     for q in range(dim))) for t in r2.orders]
    rho2 = [field(2, (((p, b), f * g) for s in range(k + 1)
                      for (p, q), f in rho[s].components.items()
                      for (q2, b), g in rho[k - s].components.items() if q2 == q))
            for k in range(cap + 1)]
    cconst = Fraction(1 + 2 * n, 2 * (1 + n))
    b = TensorFieldCurve(cap, [
        field(0, [((), f.scale(hi[a][bb])) for (a, bb), f in du[k].components.items()]
              + [((), f.scale(-cconst)) for (p, q), f in rho2[k].components.items() if p == q]
              ).scale(Fraction(-1, 2 * n))
        for k in range(cap + 1)])
    pairs = [(a, bb, lo[a][bb]) for a in range(dim) for bb in range(dim)]
    res1 = [field(3, list(dr[k].components.items())
                  + [(key, f.scale(w * Fraction(-1, 2 * n + 1)))
                     for (c,), f in u[k].components.items() for a, bb, w in pairs
                     for key in ((a, bb, c), (a, c, bb))]).is_zero()
            for k in range(cap + 1)]
    res2 = [field(2, list(du[k].components.items())
                  + [((a, bcol), f.scale(lo[a][p] * cconst))
                     for (p, bcol), f in rho2[k].components.items() for a in range(dim)]
                  + [((a, bb), b[k].get(()).scale(-w)) for a, bb, w in pairs]).is_zero()
            for k in range(cap + 1)]
    ubar = [{l: sum((f.scale(hi[c][l]) for (c,), f in u[s].components.items()),
                    FourierScalar.zero(dim)) for l in range(dim)} for s in range(cap + 1)]
    res3 = [field(1, [((a,), b[k].get(()).derivative(a)) for a in range(dim)]
                  + [((a,), (ubar[s][p] * f).scale(Fraction(-1, 1 + n)))
                     for s in range(k + 1) for (p, a), f in r2[k - s].components.items()]
                  ).is_zero()
            for k in range(cap + 1)]
    residuals = {"ricci_derivative": res1, "u_derivative": res2, "b_differential": res3}
    residuals["ok"] = all(res1) and all(res2) and all(res3)
    return u, b, residuals


@pytest.mark.parametrize("make,dim,cap", [c[1:] for c in CURVATURE_CURVES],
                         ids=[c[0] for c in CURVATURE_CURVES])
def test_ricci_curve_matches_the_per_term_reference(make, dim, cap):
    conn = make(dim, cap)
    assert curvature_bundle(conn).r == reference_ricci_curve(conn)


@pytest.mark.parametrize("name,make,dim,cap", CURVATURE_CURVES,
                         ids=[c[0] for c in CURVATURE_CURVES])
def test_extract_u_b_matches_the_per_term_reference(name, make, dim, cap):
    """On the Ricci-type (conjugated) curves u, b vanish and every residual
    does; on the others u and b are read off anyway and compared in full."""
    conn = make(dim, cap)
    bundle = curvature_bundle(conn)
    r2 = bundle.r
    assert curvature._covariant_orders(conn, r2.orders, 0) == (
        reference_covariant_derivative(conn, r2).orders)
    if bundle.u is None:
        u, b, flags = curvature._u_b_orders(conn, r2.orders, [], 0)
        u, b = TensorFieldCurve(cap, u), TensorFieldCurve(cap, b)
        residuals = dict(zip(("ricci_derivative", "u_derivative", "b_differential"), flags),
                         ok=all(map(all, flags)))
    else:
        u, b, residuals = bundle.u, bundle.b, bundle.residuals
    want_u, want_b, want_residuals = reference_extract_u_b(conn)
    assert u == want_u and b == want_b
    assert residuals == want_residuals
    if not name.startswith("conjugated"):
        assert not residuals["ok"] and not u.is_zero() and not b.is_zero()


# -- W = R - E by shared scalars against the subtraction it replaced ------------------


def dict_sub_ew_split(r4, r2, sdata):
    """W = R - E as it was: the a < b, c <= d halves of R and E subtracted
    key-wise with `dict_sub`, and the difference filled in by the
    curvature-type symmetries with fresh negations."""
    e = TensorFieldCurve(r2.cap, curvature._ricci_part_orders(r2.orders, sdata, 0))
    w = [full_fill(dict_sub(upper_half(rt), upper_half(et)), sdata.dim)
         for rt, et in zip(r4.orders, e.orders)]
    return e, TensorFieldCurve(r4.cap, w)


def mixed_r4(rng, r4, e):
    """A curvature-type curve whose upper keys are E's value (which
    cancels), E's plus R's or E doubled (present in both), absent where E
    has one (E alone), or, where E has none, R's value or the constant 1
    (R alone), with the four kinds counted."""
    kinds = {"R": 0, "cancel": 0, "both": 0, "E": 0}
    orders = []
    for rt, et in zip(r4.orders, e.orders):
        half = {}
        for key, f in et.components.items():
            if key[0] < key[1] and key[2] <= key[3]:
                kind = rng.choice(["cancel", "both", "E"])
                kinds[kind] += 1
                if kind == "cancel":
                    half[key] = f
                elif kind == "both":
                    g = rt.components.get(key, f)
                    half[key] = f + g if f + g else f.scale(2)
        for key in product(range(rt.dim), repeat=4):
            if key[0] < key[1] and key[2] <= key[3] and key not in et.components:
                f = rt.components.get(key) or rng.choice([None, FourierScalar.constant(rt.dim, 1)])
                if f is not None:
                    kinds["R"] += 1
                    half[key] = f
        orders.append(curvature.CurvatureTypeField(rt.dim, half))
    return TensorFieldCurve(r4.cap, orders), kinds


@pytest.mark.parametrize("make", [lambda: random_connection_curve(3, dim=4, cap=3),
                                  lambda: _rational_omega_curve(7)],
                         ids=["standard", "rational"])
def test_ew_split_equals_the_dict_sub_reference(make):
    """By value, by bytes and by key order of the full view, on the curve's
    own R and on a mixed R with keys of R alone, of E alone, of both, and
    keys that cancel; W's half shares R's scalars at a key of R alone."""
    from random import Random

    conn = make()
    sdata = conn.sdata
    bundle = curvature_bundle(conn)
    r4, r2, e = bundle.R, bundle.r, bundle.E
    mixed, kinds = mixed_r4(Random(5), r4, e)
    assert all(kinds.values()), kinds
    for r in (r4, mixed):
        got_w = TensorFieldCurve(r.cap, curvature._w_orders(r.orders, e.orders, sdata.dim))
        if r is r4:
            assert got_w == bundle.W
        want_e, want_w = dict_sub_ew_split(r, r2, sdata)
        assert e == want_e and got_w == want_w
        for got, want, rt, et in zip(got_w.orders, want_w.orders, r.orders, e.orders):
            assert json_text(tensor_to_json(got)) == json_text(tensor_to_json(want))
            assert list(got.components) == list(want.components)
            assert got.symmetry_tag == "curvature_type"
            assert got.components == full_fill(got.half, got.dim).components
            assert list(got.components) == list(full_fill(got.half, got.dim).components)
            for key, f in got.half.items():
                if key not in et.half:
                    assert f is rt.half[key]
    assert not got_w.is_zero()  # W of the mixed R, the last one split


# -- the stored half against a test-only full fill -------------------------------------


def _nonstandard_sdata(dim):
    """(1/2) P^T J P for the unimodular P = 1 + the superdiagonal, a rational
    omega that is not the standard one."""
    j = SymplecticData.standard(dim).omega_lo
    p = [[int(c in (r, r + 1)) for c in range(dim)] for r in range(dim)]
    return SymplecticData([
        [Fraction(sum(p[k][i] * j[k][l] * p[l][jj] for k in range(dim) for l in range(dim)), 2)
         for jj in range(dim)]
        for i in range(dim)
    ])


def _nonstandard_curve(seed, dim, cap=2):
    from random import Random

    from sympconn.generate import random_symmetric_field

    sdata = _nonstandard_sdata(dim)
    assert not sdata.is_standard()
    rng = Random(seed)
    return curvature.ConnectionCurve(
        sdata, cap, [random_symmetric_field(rng, dim, triples=3) for _ in range(cap)])


HALF_CURVES = [
    (f"{kind}-dim{dim}", make, dim)
    for dim in (4, 6)
    for kind, make in (
        ("random", lambda dim: random_connection_curve(dim + 31, dim=dim, cap=3)),
        ("conjugated", lambda dim: conjugated_flat_fixture(dim + 5, dim=dim, cap=3)[2]),
        ("nonstandard-omega", lambda dim: _nonstandard_curve(dim, dim)),
    )
]


def _assert_readers_agree(t):
    """Each reader of a stored half against the full fill of that half."""
    assert isinstance(t, curvature.CurvatureTypeField)
    assert all(k[0] < k[1] and k[2] <= k[3] and f for k, f in t.half.items())
    full = full_fill(t.half, t.dim)
    assert is_curvature_type(full)
    assert t.components == full.components
    assert list(t.components) == list(full.components)
    assert json_text(tensor_to_json(t)) == json_text(tensor_to_json(full))
    assert t.is_zero() == full.is_zero()
    assert t.first_nonzero_witness() == full.first_nonzero_witness()


def _perturbed_half(conn, order):
    """The curve's cached curvature with a constant on R_{0123} and
    cos(x^2 + x^3) added on R_{0122}, both on the stored half: the first
    breaks the cyclic symmetry, the second d^nabla R = 0."""
    dim = conn.dim
    mode = tuple(int(i in (2, 3)) for i in range(dim))
    orders = list(conn.curvature.orders)
    half = dict(orders[order].half)
    for key, f in (((0, 1, 2, 3), FourierScalar.constant(dim, 1)),
                   ((0, 1, 2, 2), FourierScalar.cosine(dim, mode))):
        accumulate(half, key, f)
    orders[order] = curvature.CurvatureTypeField(dim, half)
    conn._curvature = TensorFieldCurve(conn.cap, orders)


@pytest.mark.parametrize("make,dim", [c[1:] for c in HALF_CURVES], ids=[c[0] for c in HALF_CURVES])
def test_every_reader_of_the_half_agrees_with_the_full_fill(make, dim):
    """R, E and W are stored as halves; is_zero, the witness, the full view,
    W = R - E, the Ricci-type verdict and both Bianchi identities agree with
    the full fill of the half, and R's full fill with the lowered mixed
    reference."""
    conn = make(dim)
    bundle = curvature_bundle(conn)
    r4, r2, e, w = bundle.R, bundle.r, bundle.E, bundle.W
    assert TensorFieldCurve(conn.cap, [full_fill(t.half, dim) for t in r4.orders]) == (
        reference_curvature_curve(conn))
    want_e, _ = old_ew_split(r4, r2, conn.sdata)
    for k in range(conn.cap + 1):
        for t in (r4[k], e[k], w[k]):
            _assert_readers_agree(t)
        assert full_fill(e[k].half, dim) == want_e[k]
        assert full_fill(w[k].half, dim) == full_fill(r4[k].half, dim) - full_fill(e[k].half, dim)
    failing = [k for k in range(conn.cap + 1) if not full_fill(w[k].half, dim).is_zero()]
    if failing:
        witness = full_fill(w[failing[0]].half, dim).first_nonzero_witness()
        with pytest.raises(PreconditionError) as refused:
            require_ricci_type(bundle)
        assert str(refused.value) == (
            f"curve is not of Ricci type: first failing order {failing[0]}, witness {witness}")
    else:
        assert require_ricci_type(bundle) is None
    for perturb in (False, True):
        if perturb:
            _perturbed_half(conn, 2)
        full = TensorFieldCurve(conn.cap, [full_fill(t.half, dim) for t in conn.curvature.orders])
        report = bianchi_check(conn)
        assert report == reference_bianchi(conn, full)
        assert report["ok"] is not perturb


def test_curvature_bundle_and_normalize_build_no_full_view(monkeypatch):
    """`sympconn check` reads W.is_zero(), u, b and the residuals, and
    `normalize` reads W, r, u and b: neither builds the full components of a
    curvature-type field.  Serializing R does, once per field."""
    from sympconn.normalization import normalize_curve

    calls = count_full_views(monkeypatch)
    for conn in (random_connection_curve(3, dim=4, cap=3),
                 conjugated_flat_fixture(1, dim=4, cap=3)[2],
                 conjugated_flat_fixture(2, dim=6, cap=2)[2]):
        bundle = curvature_bundle(conn)
        bianchi_check(conn)
        if bundle.W.is_zero():
            require_ricci_type(bundle)
    normalize_curve(conjugated_flat_fixture(1, dim=4, cap=3)[2])
    with pytest.raises(PreconditionError):
        normalize_curve(random_connection_curve(3, dim=4, cap=3))
    assert calls == []
    r4 = curvature_bundle(random_connection_curve(3, dim=4, cap=3)).R
    for t in r4.orders + r4.orders:
        tensor_to_json(t)
    assert len(calls) == r4.cap + 1
