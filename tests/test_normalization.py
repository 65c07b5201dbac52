from itertools import product

import pytest

import sympconn.normalization as normalization
import sympconn.symplecto as symplecto
from sympconn.curvature import curvature_curve
from sympconn.errors import InternalInconsistency, NotExactCube, PreconditionError
from sympconn.fourier import FourierScalar, SymplecticData, TensorField
from sympconn.generate import (
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
from sympconn.symplecto import act_on_connection

SD = SymplecticData.standard(4)
COS1 = FourierScalar.cosine(4, (1, 0, 0, 0))


def test_potential_split_recovers_planted_potential():
    conn = gradient_curve(SD, 2, COS1, 1)
    split = potential_split(conn.abar[1])
    assert split.potential == COS1
    assert all(x == 0 for plane in split.constant_cube for row in plane for x in row)


def test_potential_split_keeps_constant_part():
    ladder = rank_one_ladder(SD, 1, seed=1)
    field = embed_invariant(ladder).abar[1] + gradient_curve(SD, 1, COS1, 1).abar[1]
    split = potential_split(field)
    assert split.potential == COS1
    assert split.constant_cube == tuple(
        tuple(tuple(row) for row in plane) for plane in ladder.cubes[1]
    )


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
    """The witness starts as the identity, so composing the first step in
    runs no normal ordering; the second step merges once."""
    _, _, moved = conjugated_flat_fixture(5, dim=4, cap=2, orders=(1, 2))
    calls = []
    original = symplecto.merge_exponentials

    def counting(sdata, gens_a, gens_b):
        calls.append(1)
        return original(sdata, gens_a, gens_b)

    monkeypatch.setattr(symplecto, "merge_exponentials", counting)
    result = normalize_curve(moved)
    assert [entry["potential_support"] > 0 for entry in result.per_order_log] == [True, True]
    assert len(calls) == 1
    assert act_on_connection(result.witness, moved) == embed_invariant(result.flat_curve)


@pytest.mark.parametrize("dropped", [1, 2])
def test_a_witness_missing_a_step_fails_the_final_check(monkeypatch, dropped):
    """The final check compares the witness's action with the stepped curve;
    a witness that leaves one Hamiltonian step out must be caught there."""
    _, _, moved = conjugated_flat_fixture(5, dim=4, cap=2, orders=(1, 2))
    composed = []
    original = normalization.compose

    def dropping(psi, phi):
        composed.append(psi)
        return phi if len(composed) == dropped else original(psi, phi)

    monkeypatch.setattr(normalization, "compose", dropping)
    with pytest.raises(InternalInconsistency,
                       match="^witness does not conjugate the input to the flat curve$"):
        normalize_curve(moved)
    assert len(composed) == 2
