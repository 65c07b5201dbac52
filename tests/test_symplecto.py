from fractions import Fraction

import pytest

from sympconn.curvature import curvature_curve
from sympconn.errors import NonRepresentablePhase, PreconditionError
from sympconn.fourier import FourierScalar, SymplecticData
from sympconn.generate import rank_one_ladder
from sympconn.invariant import embed_invariant
from sympconn.symplecto import (
    SymplectoCurve,
    act_on_connection,
    act_on_vector_field,
    compose,
    factorize,
    hamiltonian_field,
    invert,
    one_param_group_check,
)

DIM = 4
CAP = 3
SD = SymplecticData.standard(DIM)

COS1 = FourierScalar.cosine(DIM, (1, 0, 0, 0))
SIN12 = FourierScalar.sine(DIM, (1, 1, 0, 0))


def test_hamiltonian_field_is_symplectic():
    x = hamiltonian_field(SD, COS1 + SIN12)
    assert x.is_real()
    assert x.is_symplectic(SD)


def test_hamiltonian_step_adds_grad3():
    """psi_f(t^k) acting on the flat connection has A-bar^(k) = grad^3 f."""
    from sympconn.generate import gradient_curve

    from sympconn.curvature import ConnectionCurve

    for k in (1, 2):
        psi = SymplectoCurve.from_hamiltonian(SD, CAP, COS1, k)
        flat = ConnectionCurve.flat(SD, CAP)
        moved = act_on_connection(psi, flat)
        expected = gradient_curve(SD, CAP, COS1, order=k)
        assert moved.abar[k] == expected.abar[k]


def test_group_laws():
    psi = SymplectoCurve.from_hamiltonian(SD, CAP, COS1, 1)
    phi = SymplectoCurve.from_hamiltonian(SD, CAP, SIN12, 2)
    ident = SymplectoCurve.identity(SD, CAP)
    assert compose(psi, invert(psi)) == ident
    assert compose(invert(psi), psi) == ident
    assert compose(psi, ident) == psi
    assert compose(ident, psi) == psi
    a = compose(compose(psi, phi), invert(psi))
    b = compose(psi, compose(phi, invert(psi)))
    assert a == b


def test_one_parameter_group_rational_coefficients():
    assert one_param_group_check(SD, CAP, COS1, 1, Fraction(1, 2), Fraction(1, 3))
    assert one_param_group_check(SD, CAP, SIN12, 2, Fraction(-2), Fraction(2))


def test_affine_action_on_modes():
    """sigma(x) = Cx + 2 pi d pulls mode m back to C^T m with phase
    e^{2 pi i m.d}; a half-period translation flips the sign of mode e_1."""
    d = (Fraction(1, 2), Fraction(0), Fraction(0), Fraction(0))
    ident_c = [[1 if i == j else 0 for j in range(DIM)] for i in range(DIM)]
    sigma = SymplectoCurve.affine(SD, CAP, ident_c, d)
    f_curve = [COS1] + [FourierScalar.zero(DIM)] * CAP
    out = sigma.apply_to_scalar_curve(f_curve)
    assert out[0] == COS1.scale(Fraction(-1))


def test_nonrepresentable_phase_rejected():
    d = (Fraction(1, 3),) + (Fraction(0),) * (DIM - 1)
    ident_c = [[1 if i == j else 0 for j in range(DIM)] for i in range(DIM)]
    sigma = SymplectoCurve.affine(SD, CAP, ident_c, d)
    f_curve = [COS1] + [FourierScalar.zero(DIM)] * CAP
    with pytest.raises(NonRepresentablePhase):
        sigma.apply_to_scalar_curve(f_curve)


def test_action_is_functorial_on_connections():
    flat = embed_invariant(rank_one_ladder(SD, CAP, seed=2))
    psi = SymplectoCurve.from_hamiltonian(SD, CAP, COS1, 1)
    phi = SymplectoCurve.from_hamiltonian(SD, CAP, SIN12, 2)
    lhs = act_on_connection(compose(psi, phi), flat)
    rhs = act_on_connection(psi, act_on_connection(phi, flat))
    assert lhs.abar == rhs.abar


def test_action_preserves_flatness_and_symmetry():
    flat = embed_invariant(rank_one_ladder(SD, CAP, seed=6))
    psi = compose(
        SymplectoCurve.from_hamiltonian(SD, CAP, SIN12, 1),
        SymplectoCurve.from_hamiltonian(SD, CAP, COS1, 2),
    )
    moved = act_on_connection(psi, flat)
    for t in moved.abar:
        assert t.is_fully_symmetric()
        assert t.is_real()
    assert all(t.is_zero() for t in curvature_curve(moved).orders)
    back = act_on_connection(invert(psi), moved)
    assert back.abar == flat.abar


def test_factorize_recovers_ordered_product():
    psi = compose(
        SymplectoCurve.from_hamiltonian(SD, CAP, COS1, 1),
        SymplectoCurve.from_hamiltonian(SD, CAP, SIN12, 2),
    )
    factors = factorize(psi)
    assert [k for _, k in factors] == sorted(k for _, k in factors)
    rebuilt = SymplectoCurve.identity(SD, CAP)
    for y, k in reversed(factors):
        gens = [y.zero(DIM) for _ in range(CAP + 1)]
        gens[k] = y
        rebuilt = compose(SymplectoCurve.from_generators(SD, CAP, gens), rebuilt)
    assert rebuilt == psi


def test_factorize_requires_identity_affine_part():
    d = (Fraction(1, 2),) + (Fraction(0),) * (DIM - 1)
    ident_c = [[1 if i == j else 0 for j in range(DIM)] for i in range(DIM)]
    sigma = SymplectoCurve.affine(SD, CAP, ident_c, d)
    with pytest.raises(PreconditionError):
        factorize(sigma)


def test_factorize_at_cap_zero_has_no_factors():
    assert factorize(SymplectoCurve.identity(SD, 0)) == []


def test_act_on_vector_field_respects_composition():
    from sympconn.symplecto import FourierVectorField

    y = FourierVectorField(
        [COS1, SIN12, FourierScalar.zero(DIM), FourierScalar.zero(DIM)]
    )
    ycurve = [y] + [FourierVectorField.zero(DIM) for _ in range(CAP)]
    psi = SymplectoCurve.from_hamiltonian(SD, CAP, COS1, 1)
    phi = SymplectoCurve.from_hamiltonian(SD, CAP, SIN12, 1)
    lhs = act_on_vector_field(compose(psi, phi), ycurve)
    rhs = act_on_vector_field(psi, act_on_vector_field(phi, ycurve))
    assert lhs == rhs
