import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sympconn.euclidean as euclidean

from sympconn.errors import PreconditionError
from sympconn.euclidean import (
    Poly,
    PolySymplecto,
    PolyVectorField,
    act_on_poly_connection,
    equivalence_Rn,
    psi_A,
    psi_A_connection_check,
    psi_A_symplectic_check,
    psi_At,
    psi_At_connection_check,
    require_nilpotent_cube,
    stabilizer_check,
    structure_field,
    validity_check_cubes,
)
from sympconn.fourier import SymplecticData
from sympconn.generate import rank_one_ladder, validated_sum_ladder
from sympconn.invariant import (
    StructureMapCurve,
    cube_is_symmetric,
    cube_matrices,
    rank_one_cube,
    zero_cube,
)
from sympconn.linalg import is_zero_matrix, mat_mul
from sympconn.series import exp_ad, merge_exponentials

SD = SymplecticData.standard(4)


def e_vec(a):
    return tuple(Fraction(1) if i == a else Fraction(0) for i in range(4))


def cube_e1():
    return rank_one_cube(SD, e_vec(0))


def test_psi_A_closed_form():
    """For the rank-one cube on e_1 and the standard omega, A(x)x points
    along e_1 with coefficient -(x^3)^2, so psi^A(x) = x + (x^3)^2/2 e_1."""
    psi = psi_A(SD, cube_e1())
    first = psi.comps[0]
    assert first.coeffs.get((1, 0, 0, 0)) == 1
    assert first.coeffs.get((0, 0, 2, 0)) == Fraction(1, 2)
    assert len(first.coeffs) == 2
    for a in (1, 2, 3):
        e_a = tuple(1 if i == a else 0 for i in range(4))
        assert psi.comps[a].coeffs == {e_a: Fraction(1)}


def test_psi_A_is_symplectic_and_transports_flat():
    assert psi_A_symplectic_check(SD, cube_e1())
    assert psi_A_connection_check(SD, cube_e1())


def scaled(cube, c):
    return [[[c * x for x in row] for row in plane] for plane in cube]


def test_psi_A_one_parameter_group():
    cube = cube_e1()
    a, b = Fraction(2, 3), Fraction(-1, 2)
    lhs = psi_A(SD, scaled(cube, a)).compose(psi_A(SD, scaled(cube, b)))
    assert lhs.comps == psi_A(SD, scaled(cube, a + b)).comps
    assert psi_A(SD, scaled(cube, a)).compose(psi_A(SD, scaled(cube, -a))).is_identity()


def test_require_nilpotent_rejects_bad_cube():
    # rank-one cubes on e_1 and e_3 do not multiply to zero: omega(e_1, e_3) = 1
    bad = [
        [[cube_e1()[i][j][k] + rank_one_cube(SD, e_vec(2))[i][j][k] for k in range(4)]
         for j in range(4)]
        for i in range(4)
    ]
    with pytest.raises(PreconditionError):
        require_nilpotent_cube(SD, bad)


def test_structure_field_flow_equals_psi_A():
    """The degree-1 flow of X_A = -1/2 A(x)x reproduces the closed form
    psi^A on coordinates (the Lie series terminates by nilpotency)."""
    from sympconn.euclidean import flow_coordinate_maps

    cube = cube_e1()
    gens = [PolyVectorField.zero(4), structure_field(SD, cube)]
    maps = flow_coordinate_maps(gens, 1)
    closed = psi_A(SD, cube)
    assert maps[1] is not None
    # order-1 coefficient of the flow is X_A applied to x, i.e. the quadratic
    # part of psi^A
    for p in range(4):
        quad = {e: c for e, c in closed.comps[p].coeffs.items() if sum(e) == 2}
        assert maps[1].comps[p].coeffs == quad or maps[1].comps[p].coeffs == {
            e: c for e, c in quad.items()
        }


def test_psi_At_transports_flat_to_invariant():
    """At cap 1 the (ad X)^2 term of the nilpotency check is zero by
    valuation and lies past the end of the exponential's table."""
    for cap, seed in product((1, 3), range(3)):
        ladder = rank_one_ladder(SD, cap, seed=seed)
        validity_check_cubes(ladder)  # raises on failure
        assert psi_At_connection_check(ladder)


def test_psi_At_rejects_cross_order_violations():
    curve = StructureMapCurve(
        SD, 2, [zero_cube(4), cube_e1(), rank_one_cube(SD, e_vec(2))]
    )
    # cross term appears at order 3 only, beyond this cap: valid as truncated
    validity_check_cubes(curve)
    curve3 = StructureMapCurve(
        SD, 3, [zero_cube(4), cube_e1(), rank_one_cube(SD, e_vec(2)), zero_cube(4)]
    )
    with pytest.raises(PreconditionError):
        psi_At(curve3)


def test_equivalence_Rn_produces_verified_witness():
    a = rank_one_ladder(SD, 3, seed=1)
    b = validated_sum_ladder(SD, 3, seed=5)
    merged = equivalence_Rn(a, b)  # verified internally
    assert len(merged) == 4


def test_stabilizer_affine_curve():
    c = [[1, 0, 1, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]  # transvection
    d = [Fraction(1, 2), Fraction(0), Fraction(0), Fraction(0)]
    translation = PolyVectorField([Poly.constant(4, 1)] + [Poly.zero(4)] * 3)
    psi = PolySymplecto(SD, 2, c, d, [translation, PolyVectorField.zero(4)])
    verdict, (c_out, d_out, c_t, d_t) = stabilizer_check(psi)
    assert verdict == "stabilizes"
    assert c_out == tuple(tuple(Fraction(x) for x in row) for row in c)
    assert d_t[0] == (Fraction(1), Fraction(0), Fraction(0), Fraction(0))


def test_stabilizer_detects_moving_curve():
    ident = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    gens = [structure_field(SD, cube_e1()), PolyVectorField.zero(4)]
    psi = PolySymplecto(SD, 2, ident, [Fraction(0)] * 4, gens)
    verdict, order = stabilizer_check(psi)
    assert verdict == "moves"
    assert order == 1


# -- the basis transport, kept as a test-only reference ---------------------------


def reference_act_on_poly_connection(gens, cap, sdata, gamma):
    """The former implementation, by basis transport: the basis moves back
    through exp(ad X_t), nabla_X Y is formed per order, and the result moves
    forward through exp(ad(-X_t))."""
    dim = sdata.dim
    neg = [-g for g in gens]
    zero = PolyVectorField.zero(dim)
    back = [
        exp_ad(gens, [PolyVectorField.constant(dim, [int(i == a) for i in range(dim)])]
               + [zero] * cap)
        for a in range(dim)
    ]
    out = [dict() for _ in range(cap + 1)]
    for a in range(dim):
        xa = back[a]
        for b in range(dim):
            yb = back[b]
            deriv = []
            for k in range(cap + 1):
                acc = PolyVectorField.zero(dim)
                for s in range(k + 1):
                    acc = acc + xa[s].derive(yb[k - s])
                for s in range(1, k + 1):
                    for u in range(k - s + 1):
                        xu, yv = xa[u], yb[k - s - u]
                        for (p, q), gpq in gamma[s].items():
                            w = xu.comps[p] * yv.comps[q]
                            acc = acc + PolyVectorField([gc * w for gc in gpq.comps])
                deriv.append(acc)
            forward = exp_ad(neg, deriv)
            for k in range(cap + 1):
                if not forward[k].is_zero():
                    out[k][(a, b)] = forward[k]
    return out


def random_poly(rng, dim, terms=2, degree=2):
    out = {}
    for _ in range(terms):
        e = [0] * dim
        for _ in range(rng.randint(0, degree)):
            e[rng.randrange(dim)] += 1
        out[tuple(e)] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    return Poly(dim, out)


def random_poly_gamma(rng, dim, cap):
    """Random Christoffel data {(a, b): Gamma(e_a, e_b)}, symmetric in (a, b)."""
    gamma = [dict()]
    for _ in range(cap):
        order = {}
        for _ in range(2):
            a, b = sorted(rng.randrange(dim) for _ in range(2))
            field = PolyVectorField([random_poly(rng, dim, 1, 1) for _ in range(dim)])
            order[(a, b)] = order[(b, a)] = field
        gamma.append(order)
    return gamma


def poly_hamiltonian_ladder(rng, sdata, cap, steps):
    """The merged generator ladder of `steps` Hamiltonian steps at the orders
    1, 2, ... (cycling through 1..cap), with random cubic Hamiltonians."""
    dim = sdata.dim
    hi = sdata.omega_hi
    ladder = [PolyVectorField.zero(dim)] * (cap + 1)
    for i in range(steps):
        h = Poly.zero(dim)
        while h.degree() < 2:
            h = random_poly(rng, dim, 2, 3)
        field = PolyVectorField([
            sum((h.derivative(b).scale(hi[b][c]) for b in range(dim) if hi[b][c]),
                Poly.zero(dim))
            for c in range(dim)
        ])
        step = [PolyVectorField.zero(dim)] * (cap + 1)
        step[1 + i % cap] = field
        ladder = merge_exponentials(sdata, step, ladder)
    return ladder


@pytest.mark.parametrize("dim, cap, steps, seed", [
    (4, 2, 2, 1), (4, 2, 3, 2), (4, 3, 2, 3), (4, 3, 3, 4),
    (6, 2, 2, 5), (6, 2, 3, 6), (6, 3, 2, 7),
])
def test_poly_action_matches_basis_transport(dim, cap, steps, seed):
    rng = random.Random(seed)
    sdata = SymplecticData.standard(dim)
    gamma = random_poly_gamma(rng, dim, cap)
    gens = poly_hamiltonian_ladder(rng, sdata, cap, steps)
    acted = act_on_poly_connection(gens, cap, sdata, gamma)
    assert acted != gamma
    assert acted == reference_act_on_poly_connection(gens, cap, sdata, gamma)


def test_poly_action_matches_basis_transport_in_every_caller(monkeypatch):
    """psi_At_connection_check, equivalence_Rn and both stabilizer_check
    verdicts, with every action compared against the reference."""
    original = euclidean.act_on_poly_connection
    seen = []

    def compared(gens, cap, sdata, gamma):
        acted = original(gens, cap, sdata, gamma)
        assert acted == reference_act_on_poly_connection(gens, cap, sdata, gamma)
        seen.append(acted)
        return acted

    monkeypatch.setattr(euclidean, "act_on_poly_connection", compared)
    for seed in range(2):
        assert psi_At_connection_check(rank_one_ladder(SD, 3, seed=seed))
    equivalence_Rn(rank_one_ladder(SD, 3, seed=1), validated_sum_ladder(SD, 3, seed=5))
    sd6 = SymplecticData.standard(6)
    equivalence_Rn(rank_one_ladder(sd6, 2, seed=2), validated_sum_ladder(sd6, 2, seed=3))
    test_stabilizer_affine_curve()
    test_stabilizer_detects_moving_curve()
    assert len(seen) == 6
    assert any(any(order) for acted in seen for order in acted)


def reference_psi_A_symplectic_check(sdata, cube):
    """The per-pair form: one psi_A_pushforward_constant per basis vector and
    per pair, as the check was first written."""
    dim = sdata.dim
    lo = sdata.omega_lo
    for a in range(dim):
        xa = euclidean.psi_A_pushforward_constant(sdata, cube, [int(i == a) for i in range(dim)])
        for b in range(dim):
            yb = euclidean.psi_A_pushforward_constant(sdata, cube, [int(i == b) for i in range(dim)])
            pairing = Poly.zero(dim)
            for p in range(dim):
                for q in range(dim):
                    if lo[p][q]:
                        pairing = pairing + (xa.comps[p] * yb.comps[q]).scale(lo[p][q])
            if pairing != Poly.constant(dim, lo[a][b]):
                return False
    return True


def random_symmetric_cube(rng, dim):
    cube = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for a in range(dim):
        for b in range(a, dim):
            for c in range(b, dim):
                if rng.random() < 0.3:
                    v = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
                    for i, j, k in {(a, b, c), (a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)}:
                        cube[i][j][k] = v
    return cube


@pytest.mark.parametrize("dim", [4, 6])
def test_psi_A_symplectic_check_matches_per_pair_reference(dim):
    """Same verdicts as the per-pair form on valid ladder cubes (True) and on
    random symmetric, mostly non-nilpotent cubes (mostly False)."""
    sd = SymplecticData.standard(dim)
    rng = random.Random(dim)
    cubes = [c for seed in range(3) for c in rank_one_ladder(sd, 2, seed=seed).cubes[1:]]
    cubes += [c for c in validated_sum_ladder(sd, 2, seed=5).cubes[1:]]
    cubes += [random_symmetric_cube(rng, dim) for _ in range(8)]
    verdicts = [psi_A_symplectic_check(sd, c) for c in cubes]
    assert verdicts == [reference_psi_A_symplectic_check(sd, c) for c in cubes]
    assert True in verdicts and False in verdicts


def test_psi_A_checks_push_each_basis_vector_once(monkeypatch):
    """The symplectic check builds the cube's matrices once; the connection
    check pushes each basis vector through psi^{-A} once (dim pushforwards,
    then dim^2 for the covariant derivatives) and still checks nilpotency for
    both psi^A and psi^{-A}."""
    counts = {}

    def counting(name):
        original = getattr(euclidean, name)

        def wrapper(*args):
            counts[name] = counts.get(name, 0) + 1
            return original(*args)

        monkeypatch.setattr(euclidean, name, wrapper)

    for name in ("cube_rows", "pushforward", "require_nilpotent_cube"):
        counting(name)
    assert psi_A_symplectic_check(SD, cube_e1())
    assert counts == {"cube_rows": 1}
    counts.clear()
    assert psi_A_connection_check(SD, cube_e1())
    assert counts["pushforward"] == 4 + 4 * 4
    assert counts["require_nilpotent_cube"] == 2


# -- the dense cube algebra, kept as a test-only reference ------------------------


def reference_cube_endomorphisms(sdata, cube):
    """Dense matrices of A(e_a) from a lowered cube: (A(e_a))^p_b = omega^{cp} S_abc."""
    dim = sdata.dim
    hi = sdata.omega_hi
    mats = []
    for a in range(dim):
        m = [[Fraction(0)] * dim for _ in range(dim)]
        for b in range(dim):
            for c in range(dim):
                v = Fraction(cube[a][b][c])
                if v:
                    for p in range(dim):
                        if hi[c][p]:
                            m[p][b] += hi[c][p] * v
        mats.append(tuple(tuple(row) for row in m))
    return mats


def reference_require_nilpotent_cube(sdata, cube):
    """The nilpotency check as dim^2 dense matrix products."""
    if not cube_is_symmetric(cube):
        raise PreconditionError("cube is not fully symmetric")
    mats = reference_cube_endomorphisms(sdata, cube)
    for a, b in product(range(sdata.dim), repeat=2):
        if not is_zero_matrix(mat_mul(mats[a], mats[b])):
            raise PreconditionError(f"A(e_{a}) A(e_{b}) != 0: cube is not nilpotent")


def refusal(fn, *args):
    try:
        fn(*args)
    except PreconditionError as exc:
        return str(exc)
    return None


def skewed_omega(dim):
    """A non-standard symplectic form, so that omega^{-1} is not a signed
    permutation; e_1..e_n stay pairwise omega-orthogonal, as the ladder
    generators need."""
    n = dim // 2
    rows = [[0] * dim for _ in range(dim)]
    for i in range(n):
        rows[i][n + i], rows[n + i][i] = i + 1, -(i + 1)
    rows[n][n + 1], rows[n + 1][n] = 2, -2
    return SymplecticData(rows)


@pytest.mark.parametrize("dim", [4, 6, 8])
def test_require_nilpotent_cube_matches_dense_reference(dim):
    """Same verdict and same message as the dense products on ladder cubes
    (nilpotent), sparse and dense random symmetric cubes (mostly not), sums
    of two rank-one cubes that fail at later pairs, and a cube that is not
    symmetric, for the standard and a skewed omega."""
    rng = random.Random(dim)
    for sd in (SymplecticData.standard(dim), skewed_omega(dim)):
        cubes = [c for seed in range(2) for c in rank_one_ladder(sd, 2, seed=seed).cubes[1:]]
        cubes += validated_sum_ladder(sd, 2, seed=1).cubes[1:]
        cubes += [random_symmetric_cube(rng, dim) for _ in range(3)]
        for _ in range(6):
            sparse = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
            a, b, c = (rng.randrange(dim) for _ in range(3))
            for i, j, k in {(a, b, c), (a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)}:
                sparse[i][j][k] = Fraction(rng.randint(1, 3))
            cubes.append(sparse)
        n = dim // 2
        for i in range(n):
            unit = [tuple(Fraction(int(j == k)) for j in range(dim)) for k in (i, n + i)]
            pair = [rank_one_cube(sd, v) for v in unit]
            cubes.append([[[pair[0][x][y][z] + pair[1][x][y][z] for z in range(dim)]
                           for y in range(dim)] for x in range(dim)])
        skew = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
        skew[0][1][2] = Fraction(1)
        cubes.append(skew)
        got = [refusal(require_nilpotent_cube, sd, c) for c in cubes]
        assert got == [refusal(reference_require_nilpotent_cube, sd, c) for c in cubes]
        assert None in got and len({g for g in got if g}) > 2
        for c in cubes:
            assert cube_matrices(sd, c) == reference_cube_endomorphisms(sd, c)


# -- Poly against a plain dict-of-Fraction reference --------------------------------

exponents = st.tuples(*[st.integers(0, 2)] * 4)
fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)
poly_dicts = st.dictionaries(exponents, fractions, max_size=5)


def ref_clean(d):
    return {e: Fraction(c) for e, c in d.items() if c}


def ref_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return ref_clean(out)


def ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return ref_clean(out)


def ref_derivative(a, axis):
    return ref_clean({
        tuple(x - (i == axis) for i, x in enumerate(e)): c * e[axis]
        for e, c in a.items() if e[axis]
    })


@settings(max_examples=80, deadline=None)
@given(poly_dicts, poly_dicts, fractions, st.integers(0, 3), st.integers(0, 5))
def test_poly_arithmetic_matches_fraction_dict_reference(a, b, s, axis, shared):
    """+ - * neg scale derivative as on plain dicts of Fractions, with
    cancellation to the empty map, truth value, and == agreeing with hash."""
    b = {**b, **{e: -c for e, c in list(a.items())[:shared]}}
    pa, pb = Poly(4, a), Poly(4, b)
    ra, rb = ref_clean(a), ref_clean(b)
    neg_b = {e: -c for e, c in rb.items()}
    assert pa.coeffs == ra
    assert (pa + pb).coeffs == ref_add(ra, rb)
    assert (pa - pb).coeffs == ref_add(ra, neg_b)
    assert (-pb).coeffs == neg_b
    assert (pa * pb).coeffs == ref_mul(ra, rb)
    assert pa.scale(s).coeffs == ref_clean({e: c * s for e, c in ra.items()})
    assert s * pa == pa * s == pa.scale(s)
    assert pa.derivative(axis).coeffs == ref_derivative(ra, axis)
    for p in (pa + pb, pa - pb, pa * pb, pa.scale(s), pa.derivative(axis)):
        assert all(type(c) is Fraction and c for c in p.coeffs.values())
        assert bool(p) == bool(p.coeffs) == (not p.is_zero())
    assert (pa - pa).coeffs == {} and not pa - pa and pa + -pa == Poly.zero(4)
    assert bool(pa) == bool(ra)
    same = Poly(4, dict(reversed(list(a.items()))))
    assert same == pa and hash(same) == hash(pa)
    assert (pa == pb) == (ra == rb)
    if pa == pb:
        assert hash(pa) == hash(pb)
