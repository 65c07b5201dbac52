import random
from fractions import Fraction

import pytest

from sympconn.curvature import ConnectionCurve, curvature_bundle
import sympconn.moduli as moduli
import sympconn.series as series
import sympconn.symplecto as symplecto
from sympconn.errors import ConfigurationError, NonRepresentablePhase, PreconditionError
from sympconn.fourier import FourierScalar, SymplecticData, TensorField, raise_last
from sympconn.generate import (
    gradient_curve,
    hamiltonian_steps,
    rank_one_ladder,
    random_connection_curve,
    random_real_scalar,
    random_symmetric_field,
)
from sympconn.invariant import embed_invariant
from sympconn.linalg import inverse, matrix
from sympconn.moduli import sp_generators
from sympconn.serialize import dumps
from sympconn.symplecto import (
    FourierVectorField,
    SymplectoCurve,
    act_on_connection,
    affine_pullback_scalar,
    compose,
    conj_affine,
    hamiltonian_field,
)

import laws
import references
from laws import factorize, one_param_group_check
from references import derive, from_generators, invert

DIM = 4
CAP = 3
SD = SymplecticData.standard(DIM)

COS1 = FourierScalar.cosine(DIM, (1, 0, 0, 0))
SIN12 = FourierScalar.sine(DIM, (1, 1, 0, 0))


# -- test-only references: psi acting on scalar and vector-field curves ----------


def apply_to_scalar_curve(psi, fcurve):
    """psi . f = sigma^*(exp(X_t) f) for psi = sigma^* o exp X_t."""
    moved = references.exp_apply(psi.gens, fcurve)
    return [affine_pullback_scalar(psi.c_mat, psi.d, g) for g in moved]


def act_on_vector_field(psi, ycurve):
    """psi . Y = psi Y psi^{-1} = Ad_{sigma^*}(exp(ad X_t) Y), per order."""
    assert len(ycurve) == psi.cap + 1
    moved = references.exp_ad(psi.gens, list(ycurve))
    return [conj_affine(psi.c_mat, psi.c_inv, psi.d, y) for y in moved]


def test_hamiltonian_field_is_symplectic():
    x = hamiltonian_field(SD, COS1 + SIN12)
    assert x.is_real()
    assert x.is_symplectic(SD)


def test_from_hamiltonian_refuses_a_non_real_hamiltonian():
    f = FourierScalar.single_mode(4, (1, 0, 0, 0))
    with pytest.raises(PreconditionError, match="^Hamiltonian must be real$"):
        SymplectoCurve.from_hamiltonian(SD, CAP, f, 1)


def test_from_hamiltonian_builds_a_real_symplectic_generator():
    """The curve is built unvalidated; its one generator is real and
    symplectic under the standard and a non-standard omega, so validating
    it again gives the same curve."""
    skew = SymplecticData([[0, 0, 2, 0], [0, 0, 0, 1], [-2, 0, 0, 0], [0, -1, 0, 0]])
    for sdata in (SD, skew):
        psi = SymplectoCurve.from_hamiltonian(sdata, CAP, COS1 + SIN12, 2, Fraction(-1, 3))
        assert psi.has_identity_affine_part()
        for k, g in enumerate(psi.gens):
            assert g.is_real() and g.is_symplectic(sdata)
            assert g.is_zero() is (k != 2)
        assert SymplectoCurve(sdata, CAP, psi.c_mat, psi.d, psi.gens) == psi


def test_hamiltonian_step_adds_grad3():
    """psi_f(t^k) acting on the flat connection has A-bar^(k) = grad^3 f."""
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
    out = apply_to_scalar_curve(sigma, f_curve)
    assert out[0] == COS1.scale(Fraction(-1))


def test_nonrepresentable_phase_rejected():
    d = (Fraction(1, 3),) + (Fraction(0),) * (DIM - 1)
    ident_c = [[1 if i == j else 0 for j in range(DIM)] for i in range(DIM)]
    sigma = SymplectoCurve.affine(SD, CAP, ident_c, d)
    f_curve = [COS1] + [FourierScalar.zero(DIM)] * CAP
    with pytest.raises(NonRepresentablePhase):
        apply_to_scalar_curve(sigma, f_curve)


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
    assert all(t.is_zero() for t in curvature_bundle(moved).R.orders)
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
        rebuilt = compose(from_generators(SD, CAP, gens), rebuilt)
    assert rebuilt == psi


def test_factorize_makes_at_most_one_exp_apply_per_coordinate_and_order(monkeypatch):
    """dim calls for the targets and at most dim per solved factor: each
    factor is peeled off the targets, earlier ones are not re-expanded."""
    calls = []
    original = laws.exp_apply

    def counting(gens, fcurve):
        calls.append(len(gens))
        return original(gens, fcurve)

    monkeypatch.setattr(laws, "exp_apply", counting)
    for cap in range(1, 6):
        psi = SymplectoCurve.from_hamiltonian(SD, cap, COS1, 1)
        if cap >= 2:
            psi = compose(psi, SymplectoCurve.from_hamiltonian(SD, cap, SIN12, 2))
        calls.clear()
        assert factorize(psi)
        assert DIM <= len(calls) <= DIM * (cap + 1), (cap, len(calls))


def test_factorize_requires_identity_affine_part():
    d = (Fraction(1, 2),) + (Fraction(0),) * (DIM - 1)
    ident_c = [[1 if i == j else 0 for j in range(DIM)] for i in range(DIM)]
    sigma = SymplectoCurve.affine(SD, CAP, ident_c, d)
    with pytest.raises(PreconditionError):
        factorize(sigma)


def test_factorize_at_cap_zero_has_no_factors():
    assert factorize(SymplectoCurve.identity(SD, 0)) == []


def test_act_on_vector_field_respects_composition():
    y = FourierVectorField(
        [COS1, SIN12, FourierScalar.zero(DIM), FourierScalar.zero(DIM)]
    )
    ycurve = [y] + [FourierVectorField.zero(DIM) for _ in range(CAP)]
    psi = SymplectoCurve.from_hamiltonian(SD, CAP, COS1, 1)
    phi = SymplectoCurve.from_hamiltonian(SD, CAP, SIN12, 1)
    lhs = act_on_vector_field(compose(psi, phi), ycurve)
    rhs = act_on_vector_field(psi, act_on_vector_field(phi, ycurve))
    assert lhs == rhs


# -- the basis transport, kept as a test-only reference ---------------------------


def reference_act_on_connection(psi, conn):
    """The former implementation, by basis transport:
    (psi . nabla)_{e_a} e_b = psi.(nabla_{psi^{-1}.e_a}(psi^{-1}.e_b)),
    with every field moved through exp(ad X_t) and the affine part, lowered
    with omega.  Returns the lowered tensors per order."""
    sdata, cap, dim = conn.sdata, conn.cap, conn.dim
    inv = invert(psi)
    zero_field = FourierVectorField.zero(dim)
    basis_back = []
    for a in range(dim):
        const = FourierVectorField.constant(dim, [int(p == a) for p in range(dim)])
        basis_back.append(act_on_vector_field(inv, [const] + [zero_field] * cap))
    mixed = conn.mixed
    lo = sdata.omega_lo
    out = [dict() for _ in range(cap + 1)]
    for a in range(dim):
        xa = basis_back[a]
        for b in range(dim):
            yb = basis_back[b]
            deriv = []
            for k in range(cap + 1):
                acc = FourierVectorField.zero(dim)
                for s in range(k + 1):
                    acc = acc + derive(xa[s], yb[k - s])
                for s in range(1, k + 1):
                    for u in range(k - s + 1):
                        xu, yv = xa[u], yb[k - s - u]
                        comps = [FourierScalar.zero(dim) for _ in range(dim)]
                        for (p, q, c), g in mixed[s].components.items():
                            comps[c] = comps[c] + g * xu.comps[p] * yv.comps[q]
                        acc = acc + FourierVectorField(comps)
                deriv.append(acc)
            forward = act_on_vector_field(psi, deriv)
            for k in range(cap + 1):
                for c in range(dim):
                    val = FourierScalar.zero(dim)
                    for p in range(dim):
                        val = val + forward[k].comps[p].scale(lo[p][c])
                    if val:
                        out[k][(a, b, c)] = val
    return [TensorField(dim, 3, comp) for comp in out]


def hamiltonian_witness(rng, sdata, cap, steps):
    """A composition of `steps` Hamiltonian steps psi_f(c t^k) at the orders
    k = 1, 2, ... (cycling through 1..cap), with random real non-constant f
    and coefficients c; an order-1 step makes every power of L_X count."""
    psi = SymplectoCurve.identity(sdata, cap)
    for i in range(steps):
        f = FourierScalar.zero(sdata.dim)
        while f.is_constant():
            f = random_real_scalar(rng, sdata.dim, max_modes=2, mode_bound=1)
        coeff = Fraction(rng.choice([-2, -1, 1, 3]), rng.randint(1, 3))
        step = SymplectoCurve.from_hamiltonian(sdata, cap, f, 1 + i % cap, coeff)
        psi = compose(step, psi)
    return psi


def sp_word(sdata, indices):
    """The product of the `sp_generators` with the given indices."""
    gens = sp_generators(sdata)
    dim = sdata.dim
    m = [[int(i == j) for j in range(dim)] for i in range(dim)]
    for i in indices:
        m = [[sum(m[r][k] * gens[i][k][c] for k in range(dim)) for c in range(dim)]
             for r in range(dim)]
    return m


@pytest.mark.parametrize("dim, cap, steps, seed", [
    (4, 2, 2, 1), (4, 2, 3, 2), (4, 3, 2, 3), (4, 3, 3, 4),
    (6, 2, 2, 5), (6, 2, 3, 6), (6, 3, 2, 7),
])
def test_action_matches_basis_transport_on_random_curves(dim, cap, steps, seed):
    rng = random.Random(seed)
    sdata = SymplecticData.standard(dim)
    conn = random_connection_curve(rng, dim=dim, cap=cap, max_modes=2, mode_bound=1)
    psi = hamiltonian_witness(rng, sdata, cap, steps)
    assert not psi.is_identity()
    moved = act_on_connection(psi, conn)
    assert moved.abar == reference_act_on_connection(psi, conn)


@pytest.mark.parametrize("dim, word, d, seed", [
    (4, (0,), (Fraction(1, 4), 0, 0, 0), 1),
    (4, (1, 0, 2), (Fraction(1, 2), Fraction(3, 4), 0, Fraction(1, 4)), 2),
    (4, (3,), (0, 0, 0, 0), 3),
    (6, (0, 4), (0, Fraction(1, 4), 0, Fraction(1, 2), 0, 0), 4),
])
def test_action_with_affine_part_matches_basis_transport(dim, word, d, seed):
    """sigma(x) = C x + 2 pi d with C a word in the Sp(2n, Z) generators and
    m.d in (1/4)Z, before, after and inside a Hamiltonian witness."""
    rng = random.Random(seed)
    sdata = SymplecticData.standard(dim)
    cap = 2
    c_mat = sp_word(sdata, word)
    assert c_mat != [[int(i == j) for j in range(dim)] for i in range(dim)]
    conn = random_connection_curve(rng, dim=dim, cap=cap, max_modes=2, mode_bound=1)
    ham = hamiltonian_witness(rng, sdata, cap, 2)
    sigma = SymplectoCurve.affine(sdata, cap, c_mat, d)
    for psi in (
        sigma,
        compose(sigma, ham),
        compose(ham, sigma),
        SymplectoCurve(sdata, cap, c_mat, d, ham.gens),
    ):
        assert not psi.has_identity_affine_part()
        assert act_on_connection(psi, conn).abar == reference_act_on_connection(psi, conn)


def test_action_with_affine_part_is_functorial():
    flat = embed_invariant(rank_one_ladder(SD, CAP, seed=4))
    sigma = SymplectoCurve.affine(SD, CAP, sp_word(SD, (0, 2)), (Fraction(1, 4), 0, 0, 0))
    psi = SymplectoCurve.from_hamiltonian(SD, CAP, SIN12, 1)
    lhs = act_on_connection(compose(sigma, psi), flat)
    rhs = act_on_connection(sigma, act_on_connection(psi, flat))
    assert lhs.abar == rhs.abar
    back = act_on_connection(invert(compose(sigma, psi)), lhs)
    assert back.abar == flat.abar


def test_action_makes_no_basis_transport(monkeypatch):
    """act_on_connection runs no exp(ad X_t); symplecto does not even import
    it, and the counter does see the reference transport."""
    calls = []
    original = references.exp_ad

    def counting_exp_ad(gens, ycurve):
        calls.append(1)
        return original(gens, ycurve)

    assert not hasattr(symplecto, "exp_ad")
    monkeypatch.setattr(references, "exp_ad", counting_exp_ad)
    flat = embed_invariant(rank_one_ladder(SD, CAP, seed=3))
    sigma = SymplectoCurve.affine(SD, CAP, sp_word(SD, (0,)), (Fraction(1, 2), 0, 0, 0))
    psi = compose(sigma, SymplectoCurve.from_hamiltonian(SD, CAP, COS1, 1))
    moved = act_on_connection(psi, flat)
    assert calls == []
    assert moved.abar == reference_act_on_connection(psi, flat)
    assert calls


def test_affine_part_refusals_come_before_any_int_conversion():
    """int(1.5) is 1 and a dense product zips a long row's extra entry away,
    so both would pass as the identity if converted first."""
    eye = [[int(i == j) for j in range(DIM)] for i in range(DIM)]
    cases = [
        ([[1.5, 0, 0, 0]] + eye[1:], [0] * DIM, "linear part is not integral"),
        ([[Fraction(3, 2), 0, 0, 0]] + eye[1:], [0] * DIM, "linear part is not integral"),
        ([[1, 0, 0, 0, 0]] + eye[1:], [0] * DIM, "affine part has the wrong dimension"),
        (eye[:-1], [0] * DIM, "affine part has the wrong dimension"),
        (eye, [0] * (DIM - 1), "affine part has the wrong dimension"),
        ([[1, 1, 0, 0]] + eye[1:], [0] * DIM, "linear part is not in Sp(2n, Z)"),
    ]
    for c_mat, d, message in cases:
        with pytest.raises(ConfigurationError) as err:
            SymplectoCurve.affine(SD, 1, c_mat, d)
        assert str(err.value) == message, (c_mat, d)
    assert SymplectoCurve.affine(SD, 1, [[Fraction(2, 2), 0, 0, 0]] + eye[1:], [0] * DIM) \
        == SymplectoCurve.identity(SD, 1)


def test_compose_builds_what_the_checked_constructor_accepts():
    """compose skips the constructor's checks; its result passes them."""
    rng = random.Random(11)
    ham = hamiltonian_witness(rng, SD, CAP, 3)
    sigma = SymplectoCurve.affine(SD, CAP, sp_word(SD, (1, 0, 2)), (Fraction(1, 4), 0, 0, 0))
    for psi in (compose(sigma, ham), compose(ham, sigma), compose(ham, invert(ham))):
        assert SymplectoCurve(psi.sdata, psi.cap, psi.c_mat, psi.d, psi.gens) == psi
        assert psi.c_inv == inverse(matrix(psi.c_mat))


def test_symplectic_matrices_are_inverted_in_one_place():
    """SymplectoCurve and moduli invert through SymplecticData, not by
    Gauss-Jordan."""
    for module in (symplecto, moduli):
        assert not hasattr(module, "inverse")


@pytest.mark.parametrize("sdata", [
    SD,
    SymplecticData([[0, 0, 2, 0], [0, 0, 0, 1], [-2, 0, 0, 0], [0, -1, 0, 0]]),
    SymplecticData([[0, 0, 1, 1], [0, 0, 0, 1], [-1, 0, 0, 0], [-1, -1, 0, 0]]),
], ids=["standard", "skew", "not_monomial"])
def test_an_acted_curve_keeps_the_lie_series_output_as_its_mixed_tensors(sdata):
    """With the identity affine part the acted curve's mixed tensors are the
    Lie series' output, and they equal `raise_last` of its lowered orders;
    a curve pulled back through sigma raises its own."""
    rng = random.Random(f"kept-mixed-{sdata.omega_lo}")
    abar = [random_symmetric_field(rng, DIM) for _ in range(CAP)]
    conn = ConnectionCurve(sdata, CAP, abar)
    psi = compose(SymplectoCurve.from_hamiltonian(sdata, CAP, COS1 + SIN12, 1),
                  SymplectoCurve.from_hamiltonian(sdata, CAP, SIN12, 2))
    acted = act_on_connection(psi, conn)
    assert acted._mixed is not None
    assert acted.mixed == [raise_last(t, sdata) for t in acted.abar]
    assert any(not m.is_zero() for m in acted.mixed)
    if sdata == SD:
        sigma = SymplectoCurve.affine(SD, CAP, sp_word(SD, (1, 0, 2)), (Fraction(1, 4), 0, 0, 0))
        pulled = act_on_connection(compose(sigma, psi), conn)
        assert pulled._mixed is None
        assert pulled.mixed == [raise_last(t, SD) for t in pulled.abar]


def test_an_identity_linear_part_is_its_own_inverse(monkeypatch):
    """A curve with identity linear part takes that matrix as its inverse
    without `symplectic_inverse`; any other linear part is inverted."""
    calls = []
    original = SymplecticData.symplectic_inverse

    def counting(self, c):
        calls.append(c)
        return original(self, c)

    monkeypatch.setattr(SymplecticData, "symplectic_inverse", counting)
    psi = SymplectoCurve.from_hamiltonian(SD, CAP, COS1, 1)
    shifted = SymplectoCurve.affine(SD, CAP, psi.c_mat, (Fraction(1, 2), 0, 0, 0))
    assert calls == [] and psi.c_inv == psi.c_mat == shifted.c_inv
    c = sp_word(SD, (1, 0, 2))
    assert SymplectoCurve.affine(SD, CAP, c, (0,) * DIM).c_inv == inverse(matrix(c))
    assert len(calls) == 1


def _counting_merges(monkeypatch):
    """Count the normal orderings `compose` runs."""
    calls = []
    original = symplecto.merge_exponentials

    def counting(sdata, *ladders):
        calls.append(1)
        return original(sdata, *ladders)

    monkeypatch.setattr(symplecto, "merge_exponentials", counting)
    return calls


def test_compose_with_the_identity_returns_the_other_side(monkeypatch):
    """psi o id = psi and id o phi = phi exactly: the other side itself is
    returned and no normal ordering runs."""
    calls = _counting_merges(monkeypatch)
    ident = SymplectoCurve.identity(SD, CAP)
    ham = SymplectoCurve.from_hamiltonian(SD, CAP, COS1 + SIN12, 2, Fraction(-1, 3))
    sigma = SymplectoCurve.affine(SD, CAP, sp_word(SD, (1, 0, 2)), (Fraction(1, 4), 0, 0, 0))
    both = compose(sigma, ham)
    assert len(calls) == 1
    for psi in (ham, sigma, both, ident):
        assert compose(psi, ident) is psi
        assert compose(ident, psi) is psi
    assert len(calls) == 1


def test_compose_with_the_identity_still_checks_omega_and_caps():
    skewed = SymplecticData([[0, 2, 0, 0], [-2, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
    psi = SymplectoCurve.from_hamiltonian(SD, CAP, COS1, 1)
    for other in (SymplectoCurve.identity(SD, CAP + 1), SymplectoCurve.identity(skewed, CAP)):
        for pair in ((psi, other), (other, psi)):
            with pytest.raises(PreconditionError, match="matching omega and caps"):
                compose(*pair)


@pytest.mark.parametrize("steps", [1, 2, 3])
def test_hamiltonian_steps_merge_once_per_step_after_the_first(monkeypatch, steps):
    """The steps are composed in one n-factor `compose`: a single step needs
    no normal ordering, and any more merge once."""
    calls = _counting_merges(monkeypatch)
    pairs = [(COS1, 1), (SIN12, 2), (COS1 + SIN12, 3)][:steps]
    psi = hamiltonian_steps(SD, CAP, pairs)
    assert len(calls) == (0 if steps == 1 else 1)
    flat = embed_invariant(rank_one_ladder(SD, CAP, seed=5))
    moved = flat
    for f, k in pairs:
        moved = act_on_connection(SymplectoCurve.from_hamiltonian(SD, CAP, f, k), moved)
    assert act_on_connection(psi, flat) == moved


# -- n factors in one composition ------------------------------------------------


def folded_compose(psis):
    """The left fold of binary compositions, (psi_1 o psi_2) o ..."""
    out = psis[0]
    for psi in psis[1:]:
        out = compose(out, psi)
    return out


def random_factor(rng):
    """An affine word, a translation, a Hamiltonian step or the identity."""
    eye = [[int(i == j) for j in range(DIM)] for i in range(DIM)]
    d = tuple(Fraction(rng.randrange(4), 4) for _ in range(DIM))
    kind = rng.randrange(7)
    if kind < 2:
        word = tuple(rng.randrange(len(sp_generators(SD))) for _ in range(rng.randint(1, 3)))
        return SymplectoCurve.affine(SD, CAP, sp_word(SD, word), d)
    if kind == 2:
        return SymplectoCurve.affine(SD, CAP, eye, d)
    if kind == 3:
        return SymplectoCurve.identity(SD, CAP)
    f = random_real_scalar(rng, DIM, max_modes=2, mode_bound=1).zero_mean()
    if f.is_zero():
        f = COS1
    coeff = Fraction(rng.choice([-2, -1, 1, 3]), rng.randint(1, 3))
    return SymplectoCurve.from_hamiltonian(SD, CAP, f, rng.randint(1, CAP), coeff)


def test_n_factor_compose_equals_the_binary_fold():
    """Both equal the factors applied one by one, innermost last, on the test
    functions e^{i x^a}, which pins the affine parts and the conjugations."""
    rng = random.Random("n-factor-compose")
    tests = series.coordinate_tests(FourierVectorField, DIM, CAP)
    for _ in range(8):
        psis = [random_factor(rng) for _ in range(4)]
        for n in range(1, 5):
            composed = compose(*psis[:n])
            folded = folded_compose(psis[:n])
            assert composed == folded
            assert dumps(composed) == dumps(folded)
            for f in tests:
                one_by_one = f
                for psi in reversed(psis[:n]):
                    one_by_one = apply_to_scalar_curve(psi, one_by_one)
                assert apply_to_scalar_curve(composed, f) == one_by_one


def test_n_factor_compose_drops_identity_factors(monkeypatch):
    calls = _counting_merges(monkeypatch)
    ident = SymplectoCurve.identity(SD, CAP)
    ham = SymplectoCurve.from_hamiltonian(SD, CAP, COS1, 1)
    sigma = SymplectoCurve.affine(SD, CAP, sp_word(SD, (1, 0, 2)), (Fraction(1, 4), 0, 0, 0))
    assert compose(ident, ham, ident) is ham
    assert compose(ident, ident, ident) is ident
    assert compose(ham) is ham
    assert calls == []
    assert compose(ident, sigma, ident, ham) == compose(sigma, ham)
    assert len(calls) == 2
    with pytest.raises(PreconditionError, match="at least one factor"):
        compose()
    with pytest.raises(PreconditionError, match="matching omega and caps"):
        compose(ham, ident, SymplectoCurve.identity(SD, CAP + 1))


@pytest.mark.parametrize("sdata", [SD, SymplecticData([
    [0, Fraction(2, 3), 0, 0], [Fraction(-2, 3), 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0],
])], ids=["standard", "rational"])
def test_symplecto_curve_refuses_a_bad_generator_beside_zero_ones(sdata):
    """Zero generators pass at once; a nonzero one that is not real, or real
    but not symplectic, is still refused at every order it is put."""
    zero = FourierVectorField.zero(DIM)
    complex_field = FourierVectorField([FourierScalar.single_mode(DIM, (1, 0, 0, 0))]
                                       + [FourierScalar.zero(DIM)] * (DIM - 1))
    # alpha = i(X) omega is omega_0b cos(x^1 + x^2) in the one slot b with
    # omega_0b != 0 (2, or 1 under the rational omega), so d alpha != 0
    bent = FourierVectorField([FourierScalar.cosine(DIM, (0, 1, 1, 0))]
                              + [FourierScalar.zero(DIM)] * (DIM - 1))
    good = hamiltonian_field(sdata, COS1 + SIN12)
    assert zero.is_symplectic(sdata) and good.is_symplectic(sdata)
    assert not bent.is_symplectic(sdata) and bent.is_real()
    identity = tuple(tuple(int(i == j) for j in range(DIM)) for i in range(DIM))
    for k in range(1, CAP + 1):
        for bad, why in ((complex_field, "not real"), (bent, "not symplectic")):
            gens = [zero] * (CAP + 1)
            gens[k] = bad
            with pytest.raises(ConfigurationError, match=f"order-{k} generator is {why}"):
                SymplectoCurve(sdata, CAP, identity, (0,) * DIM, gens)
        gens = [zero] * (CAP + 1)
        gens[k] = good
        assert SymplectoCurve(sdata, CAP, identity, (0,) * DIM, gens).gens[k] == good
