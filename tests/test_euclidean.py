import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sympconn.euclidean as euclidean
import sympconn.invariant as invariant
import sympconn.rationals as rationals
from sympconn._kernel import pure

from sympconn.errors import ConfigurationError, PreconditionError
from sympconn.euclidean import (
    Poly,
    PolySymplecto,
    PolyVectorField,
    act_on_poly_connection,
    equivalence_Rn,
    invariant_gamma,
    psi_A_connection_check,
    psi_A_symplectic_check,
    psi_At,
    psi_At_connection_check,
    require_nilpotent_cube,
    stabilizer_check,
    validity_check_cubes,
)
from sympconn.fourier import FourierScalar, SymplecticData
from sympconn.generate import rank_one_ladder
from sympconn.invariant import (
    StructureMapCurve,
    cube_rows,
    integral_cube,
    rank_one_cube,
    zero_cube,
)
from sympconn.series import (
    VectorField,
    coordinate_tests,
    exp_curves,
    exp_lie_connection,
    merge_exponentials,
)

from references import derive, exp_ad, fraction_rows, mat_mul, psi_A, substitute, validated_sum_ladder
from test_series import reference_exp_lie_connection

SD = SymplecticData.standard(4)


def x_field(sdata, cube):
    """X_A(x) = -(1/2) A(x) x of a dense cube, as the package builds it."""
    return euclidean._rows_field(sdata.dim, cube_rows(sdata, integral_cube(sdata.dim, cube)))


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
    cube = cube_e1()
    gens = [PolyVectorField.zero(4), x_field(SD, cube)]
    flow = exp_curves(VectorField.add_apply, gens, coordinate_tests(PolyVectorField, 4, 1))
    closed = psi_A(SD, cube)
    assert all(coordinate[1] is not None for coordinate in flow)
    # order-1 coefficient of the flow is X_A applied to x, i.e. the quadratic
    # part of psi^A
    for p in range(4):
        quad = {e: c for e, c in closed.comps[p].coeffs.items() if sum(e) == 2}
        assert flow[p][1].coeffs == quad or flow[p][1].coeffs == {
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
    gens = [x_field(SD, cube_e1()), PolyVectorField.zero(4)]
    psi = PolySymplecto(SD, 2, ident, [Fraction(0)] * 4, gens)
    verdict, order = stabilizer_check(psi)
    assert verdict == "moves"
    assert order == 1


def test_psi_At_refuses_a_nonzero_order_0_cube():
    """The flow psi_{A^t} starts at nabla^0, so a ladder whose order-0 cube
    is nonzero is refused, before its validity is checked: on its own, as
    either side of equivalence_Rn, and by the connection check."""
    e2 = rank_one_cube(SD, e_vec(1))
    a = StructureMapCurve(SD, 2, [cube_e1(), e2, zero_cube(4)])
    b = StructureMapCurve(SD, 2, [zero_cube(4), e2, zero_cube(4)])
    invalid = StructureMapCurve(SD, 2, [cube_e1(), cube_e1(), rank_one_cube(SD, e_vec(2))])
    message = "psi_{A^t} requires a zero order-0 cube"
    for fn, args in ((psi_At, (a,)), (psi_At, (invalid,)), (psi_At_connection_check, (a,)),
                     (equivalence_Rn, (a, a)), (equivalence_Rn, (a, b)),
                     (equivalence_Rn, (b, a))):
        with pytest.raises(PreconditionError) as exc:
            fn(*args)
        assert str(exc.value) == message
    assert psi_At_connection_check(b)


@pytest.mark.parametrize("size", [3, 5])
def test_a_cube_of_the_wrong_shape_is_refused_with_its_shape(size):
    """Every reader of a dense cube refuses a 3- or 5-cube at dim 4 as a
    configuration error naming the shape: no corner of it is read, and the
    nilpotency check does not call it an asymmetric cube."""
    cube = zero_cube(size)
    ragged = list(zero_cube(4))
    ragged[1] = ragged[1][:3]
    for bad in (cube, ragged):
        for fn in (require_nilpotent_cube, psi_A_symplectic_check, psi_A_connection_check, psi_A):
            with pytest.raises(ConfigurationError, match=r"^a cube needs 4 x 4 x 4 entries$"):
                fn(SD, bad)


def test_a_float_or_bool_cube_entry_is_refused_by_every_reader():
    """0.1 and True in a dense cube are configuration errors naming the
    entry, for every reader of a dense cube, not the rationals
    3602879701896397/2^55 and 1."""
    for bad, kind in ((0.1, "float"), (True, "bool")):
        cube = [[[Fraction(0)] * 4 for _ in range(4)] for _ in range(4)]
        cube[0][0][0] = bad
        for fn in (require_nilpotent_cube, psi_A_symplectic_check, psi_A_connection_check, psi_A):
            with pytest.raises(ConfigurationError,
                               match=rf"^cube entry \(0, 0, 0\) is a {kind}, not a rational$"):
                fn(SD, cube)


def test_the_psi_A_checks_read_a_view_without_a_scan(monkeypatch):
    """Both psi^A checks of a curve's own dense cube read its stored order
    as it is: no entry of the dim^3 cube is scanned, and the nilpotency
    ladder holds the very order the view keeps.  A plain copy of the same
    cube is scanned, and gives the same verdicts."""
    scans = []
    scan = invariant.integral_form
    monkeypatch.setattr(invariant, "integral_form", lambda values: scans.append(1) or scan(values))
    cases = []
    for dim in (4, 6, 8):
        sd = SymplecticData.standard(dim)
        for seed in range(3):
            for make in (rank_one_ladder, validated_sum_ladder):
                view = make(sd, 3, seed=seed).cubes[1]
                cases.append((sd, view, tuple(tuple(tuple(r) for r in plane) for plane in view)))
    for sd, view, _ in cases:
        assert psi_A_symplectic_check(sd, view) and psi_A_connection_check(sd, view)
        assert require_nilpotent_cube(sd, view).orders[1] is view.stored
    assert scans == []
    for sd, _, plain in cases:
        assert psi_A_symplectic_check(sd, plain) and psi_A_connection_check(sd, plain)
    assert len(scans) == 2 * len(cases)


def test_the_R2n_checks_make_no_gaussian_rational(monkeypatch):
    """`equivalence_Rn` and both psi^A checks on ladders at dims 4, 6 and 8
    sum their `Fraction` maps as they are: no `GaussianRational` is made,
    while a Fourier sum, as a control, makes some.  Both constructors are
    counted wherever they are bound, since a table hit in `_reduced` calls
    no `_make`."""
    made = []

    def counting(make):
        def counted(p, q, d):
            made.append((p, q, d))
            return make(p, q, d)
        return counted

    monkeypatch.setattr(rationals, "_make", counting(rationals._make))
    monkeypatch.setattr(rationals, "_reduced", counting(rationals._reduced))
    monkeypatch.setattr(pure, "_reduced", rationals._reduced)
    for dim in (4, 6, 8):
        sd = SymplecticData.standard(dim)
        for seed in range(2):
            a, b = rank_one_ladder(sd, 3, seed=seed), validated_sum_ladder(sd, 3, seed=seed)
            equivalence_Rn(a, b)
            equivalence_Rn(b, a)
            for ladder in (a, b):
                assert psi_A_symplectic_check(sd, ladder.cubes[1])
                assert psi_A_connection_check(sd, ladder.cubes[1])
    assert made == []
    acc = pure.GaussianSums()
    acc.add((), FourierScalar.cosine(4, (1, 0, 0, 0)).coeffs, weight=Fraction(1, 3))
    acc.finish(FourierScalar, 4)
    assert made


def test_poly_symplecto_refuses_a_translation_of_the_wrong_length():
    ident = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    for d in ([0, 0], [0] * 5):
        with pytest.raises(ConfigurationError, match=r"^translation needs 4 entries$"):
            PolySymplecto(SD, 1, ident, d, [PolyVectorField.zero(4)])


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
                    acc = acc + derive(xa[s], yb[k - s])
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


def reference_invariant_gamma(b_curve):
    """The dense-constant form: a checked `PolyVectorField.constant` for
    every (a, b) whose column of A(e_a) is nonzero, pairs in sorted order."""
    dim = b_curve.dim
    out = [dict() for _ in range(b_curve.cap + 1)]
    for k in range(b_curve.cap + 1):
        for a, rows in enumerate(fraction_rows(b_curve.rows(k))):
            for b in range(dim):
                col = [rows.get(p, {}).get(b, 0) for p in range(dim)]
                if any(col):
                    out[k][(a, b)] = PolyVectorField.constant(dim, col)
    return out


def reference_all_pairs_action(gens, cap, sdata, gamma):
    """The all-pairs form of `act_on_poly_connection`: a field for every one
    of the dim^2 pairs (a, b), the zero ones dropped."""
    dim = sdata.dim
    symbols = [{}] + [
        {(a, b, p): c for (a, b), field in order.items()
         for p, c in enumerate(field.comps) if not c.is_zero()}
        for order in gamma[1 : cap + 1]
    ]
    moved = exp_lie_connection([-g for g in gens], symbols)
    zero = Poly.zero(dim)
    out = []
    for order in moved:
        fields = {}
        for a, b in product(range(dim), repeat=2):
            field = PolyVectorField([order.get((a, b, p), zero) for p in range(dim)])
            if not field.is_zero():
                fields[(a, b)] = field
        out.append(fields)
    return out


def other_form(gamma):
    """Christoffel data in its other form, order by order: the per-pair
    {(a, b): PolyVectorField} of the references, a nonzero field per pair in
    sorted order, from the package's {(a, b, p): Poly}, and back (nonzero
    components only).  An empty order is the same in both forms."""
    out = []
    for order in gamma:
        if any(len(key) == 3 for key in order):
            zero = Poly.zero(next(iter(order.values())).dim)
            out.append({(a, b): PolyVectorField([order.get((a, b, p), zero)
                                                 for p in range(zero.dim)])
                        for a, b in sorted({(a, b) for a, b, _ in order})})
        else:
            out.append({(a, b, p): c for (a, b), field in order.items()
                        for p, c in enumerate(field.comps) if c})
    return out


def same_with_key_order(got, want):
    return got == want and [list(order) for order in got] == [list(order) for order in want]


@pytest.mark.parametrize("dim", [4, 6, 8])
def test_gamma_and_action_match_the_dense_and_all_pairs_forms(dim):
    """invariant_gamma against the dense-constant form and
    act_on_poly_connection against the all-pairs form, by == and by key
    order, on rank-one and sum ladders: the actions of
    `psi_At_connection_check` (nabla^0 moved) and of `equivalence_Rn`
    (nabla^{A^t} moved by the merged ladder), and a random Christoffel
    curve moved by each ladder's flow."""
    sd = SymplecticData.standard(dim)
    cap = 3
    rng = random.Random(dim)
    ladders = [rank_one_ladder(sd, cap, seed=seed) for seed in range(2)]
    ladders += [validated_sum_ladder(sd, cap, seed=seed) for seed in (1, 5)]
    for a_curve, b_curve in zip(ladders, ladders[1:] + ladders[:1]):
        gamma_a = invariant_gamma(a_curve)
        assert same_with_key_order(other_form(gamma_a), reference_invariant_gamma(a_curve))
        assert any(gamma_a)
        gens_a = psi_At(a_curve)
        merged = merge_exponentials(sd, [-g for g in gens_a], psi_At(b_curve))
        flat = [dict() for _ in range(cap + 1)]
        for gens, gamma in ((gens_a, flat), (merged, gamma_a),
                            (gens_a, other_form(random_poly_gamma(rng, dim, cap)))):
            acted = act_on_poly_connection(gens, gamma)
            want = reference_all_pairs_action(gens, cap, sd, other_form(gamma))
            assert same_with_key_order(other_form(acted), want)
        assert acted != gamma


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
    """Also the Lie series itself against its per-term reference, on the
    Christoffel symbols of the same connection."""
    rng = random.Random(seed)
    sdata = SymplecticData.standard(dim)
    gamma = random_poly_gamma(rng, dim, cap)
    gens = poly_hamiltonian_ladder(rng, sdata, cap, steps)
    symbols = other_form(gamma)
    acted = act_on_poly_connection(gens, symbols)
    assert acted != symbols
    assert other_form(acted) == reference_act_on_poly_connection(gens, cap, sdata, gamma)
    for ladder in (gens, [-g for g in gens]):
        moved = exp_lie_connection(ladder, symbols)
        assert moved == reference_exp_lie_connection(ladder, symbols)
        assert all(type(c) is Fraction for order in moved for f in order.values()
                   for c in f.coeffs.values())


def test_poly_action_matches_basis_transport_in_every_caller(monkeypatch):
    """psi_At_connection_check, equivalence_Rn and both stabilizer_check
    verdicts, with every action compared against the reference."""
    original = euclidean.act_on_poly_connection
    seen = []

    def compared(gens, gamma):
        acted = original(gens, gamma)
        sdata = SymplecticData.standard(gens[0].dim)
        assert other_form(acted) == reference_act_on_poly_connection(
            gens, len(gamma) - 1, sdata, other_form(gamma))
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


def psi_A_pushforward_constant(sdata, cube, x):
    """psi^A . X = X - A(.)X for a constant vector X (valid by nilpotency),
    from the sparse rows of the A(e_a), built through the checked Poly
    constructors."""
    dim = sdata.dim
    rows = fraction_rows(cube_rows(sdata, integral_cube(dim, cube)))
    x = tuple(Fraction(v) for v in x)
    comps = []
    for p in range(dim):
        poly = Poly.constant(dim, x[p])
        lin = {}
        for a in range(dim):
            v = sum(w * x[b] for b, w in rows[a].get(p, {}).items())
            if v:
                e = tuple(1 if i == a else 0 for i in range(dim))
                lin[e] = -v
        comps.append(poly + Poly(dim, lin))
    return PolyVectorField(comps)


def reference_psi_A_symplectic_check(sdata, cube):
    """The per-pair form: one psi_A_pushforward_constant per basis vector and
    per pair, as the check was first written."""
    dim = sdata.dim
    lo = sdata.omega_lo
    for a in range(dim):
        xa = psi_A_pushforward_constant(sdata, cube, [int(i == a) for i in range(dim)])
        for b in range(dim):
            yb = psi_A_pushforward_constant(sdata, cube, [int(i == b) for i in range(dim)])
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


def psi_A_check_cubes(dim):
    """Valid ladder cubes (nilpotent) and random symmetric, mostly
    non-nilpotent cubes."""
    sd = SymplecticData.standard(dim)
    rng = random.Random(dim)
    cubes = [c for seed in range(3) for c in rank_one_ladder(sd, 2, seed=seed).cubes[1:]]
    cubes += [c for c in validated_sum_ladder(sd, 2, seed=5).cubes[1:]]
    cubes += [random_symmetric_cube(rng, dim) for _ in range(8)]
    return sd, cubes


@pytest.mark.parametrize("dim", [4, 6, 8])
def test_psi_A_symplectic_check_matches_per_pair_reference(dim):
    """Same verdicts as the per-pair form on valid ladder cubes (True) and on
    random symmetric, mostly non-nilpotent cubes (mostly False)."""
    sd, cubes = psi_A_check_cubes(dim)
    verdicts = [psi_A_symplectic_check(sd, c) for c in cubes]
    assert verdicts == [reference_psi_A_symplectic_check(sd, c) for c in cubes]
    assert True in verdicts and False in verdicts


def test_psi_A_symplectic_check_sums_the_pairs_a_lt_b_in_one_accumulator(monkeypatch):
    """One accumulator per check, asked once, holding sums at pairs a < b
    only; a valid cube's accumulator holds every pair with omega_ab != 0,
    for its constant."""
    made = []

    class Recording(euclidean.GaussianSums):
        def __init__(self):
            super().__init__()
            self.asked = 0
            made.append(self)

        def all_zero(self):
            self.asked += 1
            return super().all_zero()

    monkeypatch.setattr(euclidean, "GaussianSums", Recording)
    for dim in (4, 6):
        sd, cubes = psi_A_check_cubes(dim)
        for cube in cubes:
            made.clear()
            verdict = psi_A_symplectic_check(sd, cube)
            [acc] = made
            assert acc.asked == 1
            assert all(a < b for a, b in acc.sums)
            if verdict:
                lo = sd.omega_lo
                paired = {(a, b) for a in range(dim) for b in range(a + 1, dim) if lo[a][b]}
                assert paired <= set(acc.sums)


def reference_pushforward(psi, psi_inv, z):
    """(psi . Z)(x) = D psi(psi^{-1} x) Z(psi^{-1} x), given the exact
    polynomial inverse psi_inv."""
    dim = z.dim
    inv_comps = list(psi_inv.comps)
    comps = []
    for p in range(dim):
        acc = Poly.zero(dim)
        for b in range(dim):
            dpb = psi.comps[p].derivative(b)
            if dpb.is_zero() or z.comps[b].is_zero():
                continue
            acc = acc + substitute(dpb, inv_comps) * substitute(z.comps[b], inv_comps)
        comps.append(acc)
    return PolyVectorField(comps)


def reference_psi_A_connection_check(sdata, cube):
    """The former transport route: psi^A and psi^{-A} built as PolyMaps and
    checked inverse to each other by substitution, the basis pushed back
    through psi^{-A}, nabla^0_X Y formed, and the result pushed forward."""
    dim = sdata.dim
    rows = fraction_rows(cube_rows(sdata, integral_cube(dim, cube)))
    fwd = psi_A(sdata, cube)
    bwd = psi_A(sdata, scaled(cube, -1))
    assert fwd.compose(bwd).is_identity() and bwd.compose(fwd).is_identity()
    basis = [PolyVectorField.constant(dim, [int(i == a) for i in range(dim)])
             for a in range(dim)]
    pushed = [reference_pushforward(bwd, fwd, e) for e in basis]
    for a, xa in enumerate(pushed):
        for b, yb in enumerate(pushed):
            moved = reference_pushforward(fwd, bwd, derive(xa, yb))
            want = [rows[a].get(p, {}).get(b, 0) for p in range(dim)]
            if moved != PolyVectorField.constant(dim, want):
                return False
    return True


def outcome(fn, *args):
    """The value of fn(*args), or the text of its PreconditionError."""
    try:
        return fn(*args)
    except PreconditionError as exc:
        return str(exc)


@pytest.mark.parametrize("dim", [4, 6])
def test_psi_A_connection_check_matches_transport_reference(dim):
    """The cap-2 Lie-series check gives the same True or the same refusal
    text as the transport route on the cubes of the symplectic check's
    comparison and on a cube that is not symmetric."""
    sd, cubes = psi_A_check_cubes(dim)
    skew = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    skew[0][1][2] = Fraction(1)
    cubes.append(skew)
    got = [outcome(psi_A_connection_check, sd, c) for c in cubes]
    assert got == [outcome(reference_psi_A_connection_check, sd, c) for c in cubes]
    assert True in got and "cube is not fully symmetric" in got
    assert any(isinstance(g, str) and "cube is not nilpotent" in g for g in got)


def test_psi_A_checks_push_each_basis_vector_once(monkeypatch):
    """The symplectic check builds the cube's rows once; the connection check
    refuses a bad cube once and moves nabla^0 by one Lie-series action, of
    the ladder (0, X_A, 0)."""
    calls = {}

    def recording(name):
        original = getattr(euclidean, name)

        def wrapper(*args):
            calls.setdefault(name, []).append(args)
            return original(*args)

        monkeypatch.setattr(euclidean, name, wrapper)

    for name in ("cube_rows", "require_nilpotent_cube", "act_on_poly_connection"):
        recording(name)
    assert psi_A_symplectic_check(SD, cube_e1())
    assert list(calls) == ["cube_rows"] and len(calls["cube_rows"]) == 1
    calls.clear()
    assert psi_A_connection_check(SD, cube_e1())
    assert len(calls["require_nilpotent_cube"]) == 1
    [(gens, gamma)] = calls["act_on_poly_connection"]
    zero = PolyVectorField.zero(4)
    cap = len(gamma) - 1
    assert cap == 2 and gens == [zero, x_field(SD, cube_e1()), zero]
    assert gamma == [{}, {}, {}]


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


def is_zero_matrix(a):
    return all(not x for row in a for x in row)


def reference_require_nilpotent_cube(sdata, cube):
    """The nilpotency check as dim^2 dense matrix products."""
    if not invariant._is_symmetric(integral_cube(sdata.dim, cube)[1]):
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
            rows = fraction_rows(cube_rows(sd, integral_cube(dim, c)))
            dense = [
                tuple(tuple(r.get(p, {}).get(b, 0) for b in range(dim)) for p in range(dim))
                for r in rows
            ]
            assert dense == reference_cube_endomorphisms(sd, c)
            assert all(v for r in rows for row in r.values() for v in row.values())


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


def test_psi_A_connection_check_builds_the_generators_once(monkeypatch):
    """The order-2 flow check and the Lie-series check share one ladder of
    structure fields: 3 `_rows_field` calls (orders 0, 1, 2) and one
    validity check."""
    counts = {}

    def counting(name):
        original = getattr(euclidean, name)

        def wrapper(*args):
            counts[name] = counts.get(name, 0) + 1
            return original(*args)

        monkeypatch.setattr(euclidean, name, wrapper)

    for name in ("_rows_field", "validity_check_cubes"):
        counting(name)
    assert psi_A_connection_check(SD, cube_e1())
    assert counts == {"_rows_field": 3, "validity_check_cubes": 1}
