from itertools import product

import pytest

import sympconn.curvature as curvature
import sympconn.normalization as normalization
import sympconn.symplecto as symplecto
from sympconn.curvature import ConnectionCurve, curvature_bundle
from sympconn.errors import InternalInconsistency, NotExactCube, PreconditionError
from sympconn.fourier import FourierScalar, SymplecticData, TensorField
from sympconn.generate import (
    conjugated_flat,
    conjugated_flat_fixture,
    gradient_curve,
    random_connection_curve,
    rank_one_ladder,
    standard_step_scalars,
)
from sympconn.invariant import embed_invariant
from sympconn.normalization import (
    normalize_curve,
    potential_split,
    recurrence_step,
)
from sympconn.rationals import GaussianRational
from sympconn.serialize import dumps
from sympconn.symplecto import SymplectoCurve, act_on_connection, compose

from references import count_groupings

SD = SymplecticData.standard(4)
COS1 = FourierScalar.cosine(4, (1, 0, 0, 0))


def test_potential_split_recovers_planted_potential():
    conn = gradient_curve(SD, 2, COS1, 1)
    split = potential_split(conn.abar[1])
    assert split.potential == COS1
    assert split.constant.is_zero()


def test_potential_split_keeps_constant_part():
    ladder = rank_one_ladder(SD, 1, seed=1)
    field = embed_invariant(ladder).abar[1] + gradient_curve(SD, 1, COS1, 1).abar[1]
    split = potential_split(field)
    assert split.potential == COS1
    assert split.constant == embed_invariant(ladder).abar[1]


COS_ALL = FourierScalar.cosine(4, (1, 1, 1, 1))


def zero_modes_share_components(t):
    """Whether t has a zero mode and every component holding one also holds
    a nonzero mode."""
    held = [f for f in t.components.values() if (0,) * t.dim in f.coeffs]
    return bool(held) and all(len(f.coeffs) > 1 for f in held)


def test_potential_split_keeps_only_the_zero_modes():
    """grad^3 cos(x^1 + ... + x^4) reaches every component, so each nonzero
    cube entry shares its component with nonzero modes; Q keeps the zero
    modes alone."""
    ladder = rank_one_ladder(SD, 1, seed=1)
    field = embed_invariant(ladder).abar[1] + gradient_curve(SD, 1, COS_ALL, 1).abar[1]
    assert zero_modes_share_components(field)
    split = potential_split(field)
    assert split.potential == COS_ALL
    assert split.constant == embed_invariant(ladder).abar[1]


def test_normalization_where_zero_modes_share_components():
    """A flat ladder moved by psi_{cos(x^1 + ... + x^4)}(t): every component
    of the order-1 term that holds a zero mode also holds nonzero modes, and
    the step leaves exactly the zero modes."""
    flat = rank_one_ladder(SD, 2, seed=1)
    psi, moved = conjugated_flat(SD, 2, flat, [(COS_ALL, 1)])
    assert zero_modes_share_components(moved.abar[1])
    result = normalize_curve(moved)
    assert result.flat_curve == flat
    assert act_on_connection(result.witness, moved) == embed_invariant(flat)


def test_potential_split_rejects_non_cube():
    """cos(x^1 + x^2) in the (1,1,1) component only is not grad^3 of
    anything: the mode has m_2 != 0, so the (2,2,2) component would have to
    be nonzero too."""
    comps = {(0, 0, 0): FourierScalar.cosine(4, (1, 1, 0, 0))}
    t = TensorField(4, 3, comps, symmetry_tag="fully_symmetric", _validated=True)
    with pytest.raises(NotExactCube) as err:
        potential_split(t)
    assert err.value.mode in ((1, 1, 0, 0), (-1, -1, 0, 0))


def test_gradient_fixture_normalizes_to_zero():
    """t . grad^3(cos x^1): flat curve is zero, witness is psi_{-cos x^1}(t)."""
    conn = gradient_curve(SD, 2, COS1, 1)
    result = normalize_curve(conn)
    assert all(
        x == 0
        for cube in result.flat_curve.cubes
        for plane in cube
        for row in plane
        for x in row
    )
    assert result.witness.has_identity_affine_part()
    moved = act_on_connection(result.witness, conn)
    assert all(t.is_zero() for t in moved.abar)


def test_embedded_invariant_gets_identity_witness():
    flat = rank_one_ladder(SD, 3, seed=2)
    result = normalize_curve(embed_invariant(flat))
    assert result.witness.is_identity()
    assert result.flat_curve == flat


def test_roundtrip_recovers_exactness():
    for seed in range(3):
        flat, psi, moved = conjugated_flat_fixture(seed, dim=4, cap=3)
        result = normalize_curve(moved)
        # the witness equation is asserted inside; re-check it here explicitly
        assert act_on_connection(result.witness, moved) == embed_invariant(result.flat_curve)
        # and normalization certifies flatness of the input itself
        assert all(t.is_zero() for t in curvature_bundle(moved).R.orders)


def test_non_ricci_type_refused_with_first_order():
    conn = random_connection_curve(3, dim=4, cap=2)
    with pytest.raises(PreconditionError, match="order 1"):
        normalize_curve(conn)


def test_cap_zero_curve_normalizes_to_the_identity():
    """No order-1 step runs at cap 0; the curve is nabla^0, which is flat."""
    conn = random_connection_curve(3, dim=4, cap=0)
    result = normalize_curve(conn)
    assert result.witness.is_identity()
    assert result.flat_curve.is_zero() and result.flat_curve.cap == 0
    assert result.per_order_log == []
    assert embed_invariant(result.flat_curve) == conn


def test_recurrence_step_requires_settled_lower_orders():
    _, _, moved = conjugated_flat_fixture(1, dim=4, cap=2)
    if moved.abar[1].is_constant():
        pytest.skip("fixture already invariant at order 1")
    with pytest.raises(PreconditionError):
        recurrence_step(moved, 2)


def reference_first_defect(s):
    """(mode, component) of the first failing exact-cube equation over all
    (2n)^3 components, or None: the former full check of potential_split."""
    dim = s.dim
    modes = sorted({m for f in s.components.values() for m in f.coeffs if any(m)})
    for m in modes:
        b = next(i for i, mi in enumerate(m) if mi)
        u_hat = s.get((b, b, b)).coeff(m) / (GaussianRational(0, -1) * (m[b] ** 3))
        for idx in product(range(dim), repeat=3):
            want = u_hat * (GaussianRational(0, -1) * (m[idx[0]] * m[idx[1]] * m[idx[2]]))
            if s.get(idx).coeff(m) != want:
                return m, idx
    return None


def test_potential_split_reports_the_first_defect_of_the_full_check():
    """Only p <= q <= r is checked, yet the reported (mode, component) is the
    one the check over all components finds first."""
    import random

    from sympconn.generate import random_symmetric_field

    rng = random.Random(3)
    defects = 0
    for _ in range(12):
        s = random_symmetric_field(rng, 4, max_modes=2, mode_bound=1, triples=3)
        s = s + gradient_curve(SD, 1, COS1, 1).abar[1]
        want = reference_first_defect(s)
        if want is None:
            potential_split(s)
            continue
        defects += 1
        with pytest.raises(NotExactCube) as err:
            potential_split(s)
        assert (err.value.mode, err.value.idx) == want
    assert defects


def test_two_step_normalization_merges_once(monkeypatch):
    """The two steps are normal-ordered together, in one merge."""
    _, _, moved = conjugated_flat_fixture(5, dim=4, cap=2, orders=(1, 2))
    calls = []
    original = symplecto.merge_exponentials

    def counting(sdata, *ladders):
        calls.append(1)
        return original(sdata, *ladders)

    monkeypatch.setattr(symplecto, "merge_exponentials", counting)
    result = normalize_curve(moved)
    assert [entry["potential_support"] > 0 for entry in result.per_order_log] == [True, True]
    assert len(calls) == 1
    assert act_on_connection(result.witness, moved) == embed_invariant(result.flat_curve)


def test_every_order_normalization_merges_once_into_the_step_by_step_witness(monkeypatch):
    """Seven steps at cap 8 are normal-ordered in one merge, and the witness
    is the one the compose-per-step loop builds, to the byte."""
    _, _, moved = conjugated_flat_fixture(7, dim=4, cap=8, orders=tuple(range(1, 8)))
    stepwise = SymplectoCurve.identity(SD, 8)
    current = moved
    for k in range(1, 9):
        _, current, step, _ = recurrence_step(current, k)
        stepwise = compose(step, stepwise)
    calls = []
    original = symplecto.merge_exponentials

    def counting(sdata, *ladders):
        calls.append(len(ladders))
        return original(sdata, *ladders)

    monkeypatch.setattr(symplecto, "merge_exponentials", counting)
    result = normalize_curve(moved)
    assert sum(entry["potential_support"] > 0 for entry in result.per_order_log) == 7
    assert calls == [7]
    assert result.witness == stepwise
    assert dumps(result.witness) == dumps(stepwise)


@pytest.mark.parametrize("dropped", [1, 2])
def test_a_witness_missing_a_step_fails_the_final_check(monkeypatch, dropped):
    """The final check compares the witness's action with the stepped curve;
    a witness that leaves one Hamiltonian step out must be caught there."""
    _, _, moved = conjugated_flat_fixture(5, dim=4, cap=2, orders=(1, 2))
    composed = []
    original = normalization.compose

    def dropping(*psis):
        composed.append(psis)
        return original(*(psi for i, psi in enumerate(psis, 1) if i != dropped))

    monkeypatch.setattr(normalization, "compose", dropping)
    with pytest.raises(InternalInconsistency,
                       match="^witness does not conjugate the input to the flat curve$"):
        normalize_curve(moved)
    assert [len(psis) for psis in composed] == [2]


# -- the curvature bundle carried across steps ----------------------------------

SD_SKEW = SymplecticData([[0, 0, 2, 0], [0, 0, 0, 1], [-2, 0, 0, 0], [0, -1, 0, 0]])


def every_order_fixture(sdata, dim, cap):
    """A conjugated flat curve moved at every order 1..cap, so every step
    moves its order."""
    if sdata is None:
        return conjugated_flat_fixture(7, dim=dim, cap=cap, orders=tuple(range(1, cap + 1)))[2]
    flat = rank_one_ladder(sdata, cap, seed=3)
    return conjugated_flat(sdata, cap, flat, standard_step_scalars(dim, range(1, cap + 1)))[1]


def test_normalize_groups_each_order_of_each_step_curve_once(monkeypatch):
    """Every step of an every-order fixture moves its curve, and each curve
    groups each mixed order it reads by upper index once, for R and r
    alike: the input all its cap + 1 orders (its own R is checked at the
    end), the curve of step k >= 2 its head's orders 0..k only, no order
    grouped twice."""
    cap = 4
    conn = every_order_fixture(None, 4, cap)
    seen = count_groupings(monkeypatch)
    normalize_curve(conn)
    assert len(seen) == (cap + 1) + sum(k + 1 for k in range(2, cap + 1))
    assert len({id(m) for m in seen}) == len(seen)


def bundle_orders(bundle):
    """R, r, E, W, u, b and the residual verdicts of a bundle, per order."""
    curves = [bundle.R, bundle.r, bundle.E, bundle.W, bundle.u, bundle.b]
    flags = [bundle.residuals[name] for name in
             ("ricci_derivative", "u_derivative", "b_differential")]
    return [[c[k] for c in curves] + [f[k] for f in flags] for k in range(bundle.R.cap + 1)]


EVERY_ORDER_CASES = pytest.mark.parametrize("sdata, dim, cap", [
    (None, 4, 4), (None, 4, 8), (None, 6, 8), (SD_SKEW, 4, 4),
], ids=["dim4_cap4", "dim4_cap8", "dim6_cap8", "skew_omega_cap4"])


@EVERY_ORDER_CASES
def test_the_carried_bundle_is_the_bundle_of_each_step_input(sdata, dim, cap):
    """At every step the bundle built from the previous step's carry is the
    bundle of the step input's order-k head: order by order it equals a
    fresh `curvature_bundle` of that head, built from its lowered orders
    alone, and it holds no order above k."""
    current = every_order_fixture(sdata, dim, cap)
    carry = None
    for k in range(1, cap + 1):
        _, updated, step, new_carry = recurrence_step(current, k, carry)
        assert not step.is_identity()
        assert new_carry[1] == k and new_carry[0].R.cap == k
        head = ConnectionCurve(current.sdata, k, current.abar[:k + 1], validate=False)
        fresh = curvature_bundle(head)
        got, want = bundle_orders(new_carry[0]), bundle_orders(fresh)
        assert len(got) == len(want) == k + 1
        for order in range(k + 1):
            assert got[order] == want[order], (k, order)
        assert new_carry[0].residuals == fresh.residuals
        current, carry = updated, new_carry


@pytest.mark.parametrize("sdata, dim, cap", [
    (None, 4, 6), (None, 6, 5), (SD_SKEW, 4, 4),
], ids=["dim4_cap6", "dim6_cap5", "skew_omega_cap4"])
def test_the_head_bundle_is_the_curve_bundle_through_order_k(sdata, dim, cap):
    """The bundle of a step input's order-k head equals the bundle of the
    whole step input at every order <= k: order j of R, r, E, W, u, b and of
    the residual verdicts reads A^(s) for s <= j only."""
    current = every_order_fixture(sdata, dim, cap)
    for k in range(1, cap + 1):
        whole = bundle_orders(curvature_bundle(
            ConnectionCurve(current.sdata, cap, current.abar, validate=False)))
        head = bundle_orders(curvature_bundle(current.head(k)))
        assert head == whole[:k + 1], k
        current = recurrence_step(current, k)[1]


def test_each_step_computes_each_bundle_order_from_k_minus_1_once(monkeypatch):
    """Moves at orders 1 and 4 of a cap-5 curve: step 1 builds its head's
    orders 0 and 1, step 2 the orders 1 and 2, steps 3 and 4 follow
    identity steps and build their own order alone, and step 5 builds the
    orders 4 and 5; no order above k is built at step k.  The input's own
    R, read by the final flatness check, is built at every order once more."""
    _, _, moved = conjugated_flat_fixture(1, dim=4, cap=5, orders=(1, 4))
    built = []
    step_of = []
    original_step = normalization.recurrence_step
    original_read = normalization.from_connection_curve

    def stepping(conn, k, carried=None):
        step_of.append(k)
        return original_step(conn, k, carried)

    def reading(conn):
        step_of.append("end")
        return original_read(conn)

    def counting(name, builder):
        def wrapper(conn, *args):
            out = builder(conn, *args)
            start = args[-1]
            built.extend((step_of[-1], name, order) for order in range(start, start + len(out)))
            return out
        return wrapper

    monkeypatch.setattr(normalization, "recurrence_step", stepping)
    monkeypatch.setattr(normalization, "from_connection_curve", reading)
    monkeypatch.setattr(curvature, "_curvature_orders",
                        counting("R", curvature._curvature_orders))
    monkeypatch.setattr(curvature, "_ricci_orders", counting("r", curvature._ricci_orders))
    original_u_b = curvature._u_b_orders

    def counting_u_b(conn, r_orders, u_head, start):
        u, b, flags = original_u_b(conn, r_orders, u_head, start)
        built.extend((step_of[-1], "u", order) for order in range(start, start + len(u)))
        return u, b, flags

    monkeypatch.setattr(curvature, "_u_b_orders", counting_u_b)
    result = normalize_curve(moved)
    assert [e["potential_support"] > 0 for e in result.per_order_log] == [
        True, False, False, True, False]
    want = [(1, 0), (1, 1), (2, 1), (2, 2), (3, 3), (4, 4), (5, 4), (5, 5)]
    assert [(step, order) for step, n, order in built if n == "R"] == want + [
        ("end", order) for order in range(6)]
    for name in ("r", "u"):
        assert [(step, order) for step, n, order in built if n == name] == want, name


# Today's refusals of a curve that is not of Ricci type at one order j: the
# dim-4 cap-4 fixture stepped at orders 1-3 (seed s) plus a random symmetric
# field at order j (random.Random(100 s + j)), refused at step 1 when each
# step read the whole curve.  Read per step on its head, the same curve is
# refused by the step at order j with the same text.
PINNED_REFUSALS = {
    (0, 2): "first failing order 2, witness ((0, 1, 0, 0), (-1, 1, 1, 2))",
    (0, 3): "first failing order 3, witness ((0, 1, 0, 0), (-2, 0, 1, 2))",
    (0, 4): "first failing order 4, witness ((0, 1, 0, 2), (-1, -2, 0, -1))",
    (1, 2): "first failing order 2, witness ((0, 1, 1, 2), (-2, -2, 1, -1))",
    (1, 3): "first failing order 3, witness ((0, 1, 0, 2), (-2, 1, 1, 0))",
    (1, 4): "first failing order 4, witness ((0, 1, 0, 1), (-2, -2, 0, 0))",
    (2, 2): "first failing order 2, witness ((0, 1, 0, 2), (-1, -2, -2, 1))",
    (2, 3): "first failing order 3, witness ((0, 1, 0, 2), (-2, 1, 2, 1))",
    (2, 4): "first failing order 4, witness ((0, 1, 0, 2), (-1, -1, 0, 2))",
    (3, 2): "first failing order 2, witness ((0, 1, 0, 0), (-1, -1, 0, -2))",
    (3, 3): "first failing order 3, witness ((0, 1, 0, 1), (-2, -2, 0, -2))",
    (3, 4): "first failing order 4, witness ((0, 1, 1, 2), (-2, -2, 0, 0))",
    (4, 2): "first failing order 2, witness ((0, 1, 2, 2), (-1, 2, 1, -2))",
    (4, 3): "first failing order 3, witness ((0, 1, 1, 2), (0, -1, 1, -2))",
    (4, 4): "first failing order 4, witness ((0, 1, 0, 3), (-2, 1, -2, 2))",
    (5, 2): "first failing order 2, witness ((0, 1, 0, 3), (-1, -1, 2, -1))",
    (5, 3): "first failing order 3, witness ((0, 1, 1, 2), (-2, -2, 2, 0))",
    (5, 4): "first failing order 4, witness ((0, 1, 0, 2), (-2, 1, 0, -2))",
}


@pytest.mark.parametrize("seed", range(6))
def test_a_refusal_keeps_its_order_and_witness(monkeypatch, seed):
    """A curve broken at order j alone is refused with today's text, by the
    step at order j, after the steps below it."""
    import random

    from sympconn.generate import random_symmetric_field

    _, _, moved = conjugated_flat_fixture(seed, dim=4, cap=4, orders=(1, 2, 3))
    steps = []
    original_step = normalization.recurrence_step

    def stepping(conn, k, carried=None):
        steps.append(k)
        return original_step(conn, k, carried)

    monkeypatch.setattr(normalization, "recurrence_step", stepping)
    for j in (2, 3, 4):
        abar = list(moved.abar)
        abar[j] = abar[j] + random_symmetric_field(random.Random(100 * seed + j), 4)
        steps.clear()
        with pytest.raises(PreconditionError) as err:
            normalize_curve(ConnectionCurve(SD, 4, abar))
        assert str(err.value) == "curve is not of Ricci type: " + PINNED_REFUSALS[seed, j]
        assert steps == list(range(1, j + 1))


def test_the_flat_curve_composes_no_step_and_builds_no_zero_rho(monkeypatch):
    """Normalizing the flat curve hands `compose` no identity step to test
    and sums no zero order of r into rho: the flat path stays linear in the
    cap.  The witness is the identity, as before."""
    calls = []
    original = SymplectoCurve.is_identity

    def counted(psi):
        calls.append(psi)
        return original(psi)

    monkeypatch.setattr(SymplectoCurve, "is_identity", counted)
    composed = []
    original_compose = normalization.compose

    def composing(*psis):
        composed.append(psis)
        return original_compose(*psis)

    monkeypatch.setattr(normalization, "compose", composing)
    result = normalize_curve(ConnectionCurve.flat(SD, 50))
    assert composed == [] and calls == []
    assert result.witness.is_identity()
    assert dumps(result.witness) == dumps(SymplectoCurve.identity(SD, 50))

    class NoSums:
        def __init__(self):
            raise AssertionError("a GaussianSums for a zero order of r")

    zero = curvature_bundle(ConnectionCurve.flat(SD, 3)).r.orders
    monkeypatch.setattr(curvature, "GaussianSums", NoSums)
    assert curvature._rho_orders(zero, SD) == zero


@pytest.mark.parametrize("seed, dim", [(3, 4), (4, 6)])
def test_bundle_orders_from_a_start_equal_the_fresh_ones_on_curved_curves(seed, dim):
    """Every bundle order vanishes on a curve that normalizes, so the
    builders that start at an order are checked here on random, curved
    curves.  Moved by psi_f(t^j), a curve's bundle from the unmoved curve's
    below j equals its fresh bundle; so do u, b and the residual verdicts
    from order j on, which `curvature_bundle` builds only for a Ricci-type
    curve.  Orders up to j of the bundle are not moved by the step (the
    bundle is natural and vanishes at order 0); order j + 1 is."""
    cap = 4
    conn = random_connection_curve(seed, dim=dim, cap=cap)
    sdata = conn.sdata
    before = curvature_bundle(conn)
    f = FourierScalar.cosine(dim, (1, 1) + (0,) * (dim - 2))
    for j in range(1, cap + 1):
        moved = act_on_connection(SymplectoCurve.from_hamiltonian(sdata, cap, f, j), conn)
        assert moved.abar[:j] == conn.abar[:j] and moved.abar[j] != conn.abar[j]
        carried = curvature_bundle(moved, (before, j))
        fresh = curvature_bundle(ConnectionCurve(sdata, cap, moved.abar, validate=False))
        assert carried.u is None and fresh.u is None
        for name in ("R", "r", "E", "W"):
            assert getattr(carried, name) == getattr(fresh, name), (j, name)
        assert fresh.R.orders[:j + 1] == before.R.orders[:j + 1]
        assert j == cap or fresh.R[j + 1] != before.R[j + 1]
        u, b, flags = curvature._u_b_orders(moved, fresh.r.orders, [], 0)
        u_j, b_j, flags_j = curvature._u_b_orders(moved, fresh.r.orders, u[:j], j)
        assert (u_j, b_j) == (u[j:], b[j:])
        assert list(flags_j) == [f[j:] for f in flags]
