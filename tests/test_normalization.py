from itertools import product

import pytest

import sympconn.normalization as normalization
import sympconn.symplecto as symplecto
from sympconn.curvature import curvature_curve
from sympconn.errors import InternalInconsistency, NotExactCube, PreconditionError
from sympconn.fourier import FourierScalar, SymplecticData, TensorField
from sympconn.generate import (
    conjugated_flat,
    conjugated_flat_fixture,
    gradient_curve,
    random_connection_curve,
    rank_one_ladder,
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
        assert all(t.is_zero() for t in curvature_curve(moved).orders)


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
        _, current, step = recurrence_step(current, k)
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
