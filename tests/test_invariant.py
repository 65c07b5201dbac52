import random
from fractions import Fraction
from itertools import product

import pytest

import sympconn.invariant as invariant
from sympconn.curvature import ConnectionCurve, curvature_curve, is_ricci_type
from sympconn.errors import PreconditionError
from sympconn.fourier import FourierScalar, SymplecticData, TensorField
from sympconn.generate import gradient_curve, rank_one_ladder, validated_sum_ladder
from sympconn.invariant import (
    StructureMapCurve,
    embed_invariant,
    flatness_theorem_check,
    from_connection_curve,
    invariant_ricci_type_check,
    rank_one_cube,
    rho_curve,
    zero_cube,
)
from sympconn.euclidean import validity_check_cubes
from sympconn.linalg import transpose
from sympconn.moduli import cheap_invariants, validity_check
from sympconn.rationals import GaussianRational


def e_vec(dim, a):
    return tuple(Fraction(1) if i == a else Fraction(0) for i in range(dim))


def mat_mul(a, b):
    """The dense matrix product, as a test-only reference."""
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


def reference_endomorphisms(curve, k):
    """Dense matrices of B^(k)(e_a) straight from the cube:
    (B(e_a))^p_b = sum_c omega^{cp} S_abc, i.e. omega_hi^T S_a^T."""
    hi_t = transpose(curve.sdata.omega_hi)
    return [mat_mul(hi_t, transpose(plane)) for plane in curve.cubes[k]]


def test_rank_one_cube_hand_value():
    """For v = e_1 and the standard omega in dim 4, omega(e_3, e_1) = -1 so
    the only nonzero entry is S_333 = omega(e_3, v)^3 = -1 (0-based slot 2)."""
    sd = SymplecticData.standard(4)
    cube = rank_one_cube(sd, e_vec(4, 0))
    for a in range(4):
        for b in range(4):
            for c in range(4):
                want = Fraction(-1) if (a, b, c) == (2, 2, 2) else Fraction(0)
                assert cube[a][b][c] == want


def test_rank_one_cube_is_valid():
    sd = SymplecticData.standard(4)
    curve = StructureMapCurve(sd, 1, [zero_cube(4), rank_one_cube(sd, e_vec(4, 0))])
    ok, witness = validity_check(curve)
    assert ok, witness


def test_invariant_curvature_vanishes_for_valid_curves():
    for seed in range(3):
        for dim in (4, 6):
            sd = SymplecticData.standard(dim)
            curve = rank_one_ladder(sd, 3, seed=seed)
            report = flatness_theorem_check(curve)
            assert report["curvature_zero"] == [True] * (curve.cap + 1)
            assert report["ok"]


def test_ricci_type_identity_for_valid_curves():
    for seed in range(3):
        sd = SymplecticData.standard(4)
        curve = validated_sum_ladder(sd, 3, seed=seed)
        ok, witness = invariant_ricci_type_check(curve)
        assert ok, witness


def test_structure_maps_square_to_zero():
    sd = SymplecticData.standard(4)
    curve = validated_sum_ladder(sd, 3, seed=9)
    dim = sd.dim
    for k in range(curve.cap + 1):
        for p in range(k + 1):
            left = reference_endomorphisms(curve, p)
            right = reference_endomorphisms(curve, k - p)
            for a in range(dim):
                for b in range(dim):
                    prod = mat_mul(left[a], right[b])
                    assert all(all(x == 0 for x in row) for row in prod)


def test_flatness_theorem_raises_on_invalid():
    """Rank-one cubes on e_1 and e_3 are each valid alone, but
    omega(e_1, e_3) = 1 makes the cross term A^(1)(X)A^(2)(Y) nonzero at
    order 3, so the stacked ladder is not flat."""
    sd = SymplecticData.standard(4)
    cube1 = rank_one_cube(sd, e_vec(4, 0))
    cube2 = rank_one_cube(sd, e_vec(4, 2))
    curve = StructureMapCurve(sd, 3, [zero_cube(4), cube1, cube2, zero_cube(4)])
    ok, witness = validity_check(curve)
    assert not ok and witness["order"] == 3
    with pytest.raises(PreconditionError, match="'order': 3"):
        flatness_theorem_check(curve)


def test_embed_round_trip():
    sd = SymplecticData.standard(4)
    curve = rank_one_ladder(sd, 2, seed=4)
    conn = embed_invariant(curve)
    assert conn.is_invariant()
    assert all(t.is_zero() for t in curvature_curve(conn).orders)
    ok, _, _ = is_ricci_type(conn)
    assert ok
    assert from_connection_curve(conn) == curve


def test_from_connection_curve_refuses_a_curve_that_is_not_invariant():
    sd = SymplecticData.standard(4)
    conn = gradient_curve(sd, 1, FourierScalar.cosine(4, (1, 0, 0, 0)))
    with pytest.raises(PreconditionError, match="^connection curve is not invariant$"):
        from_connection_curve(conn)


def test_from_connection_curve_refuses_an_imaginary_constant():
    sd = SymplecticData.standard(4)
    i_const = FourierScalar.constant(4, GaussianRational(0, 1))
    t = TensorField(4, 3, {(0, 0, 0): i_const}, "fully_symmetric")
    conn = ConnectionCurve(sd, 1, [t], validate=False)
    with pytest.raises(PreconditionError, match="^invariant cube must be real$"):
        from_connection_curve(conn)


def invalid_ladder(sd, i):
    """Rank-one cubes on e_i at orders 1 and 3 and on e_{n+i} at order 2:
    omega(e_i, e_{n+i}) = 1, so the cross term B1 B2 + B2 B1 is nonzero and
    validity first fails at order 3."""
    dim, n = sd.dim, sd.n
    cubes = [zero_cube(dim)] + [
        rank_one_cube(sd, e_vec(dim, j)) for j in (i, n + i, i)
    ]
    return StructureMapCurve(sd, 3, cubes)


def random_symmetric_ladder(sd, cap, seed):
    """Fully symmetric cubes with random rational entries: no nilpotency,
    so the product table has entries at every order, some cancelling."""
    import random

    rng = random.Random(seed)
    dim = sd.dim
    cubes = [zero_cube(dim)]
    for _ in range(cap):
        cube = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
        for a in range(dim):
            for b in range(a, dim):
                for c in range(b, dim):
                    if rng.random() < 0.3:
                        v = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
                        for x, y, z in {(a, b, c), (a, c, b), (b, a, c),
                                        (b, c, a), (c, a, b), (c, b, a)}:
                            cube[x][y][z] = v
        cubes.append(cube)
    return StructureMapCurve(sd, cap, cubes)


def dense_products(curve, k):
    """Reference definition of the product table: the dense matrices
    sum_{p+q=k} B^(p)(e_a) B^(q)(e_b), keyed (a, b)."""
    dim = curve.dim
    mats = [reference_endomorphisms(curve, p) for p in range(k + 1)]
    out = {}
    for a in range(dim):
        for b in range(dim):
            acc = [[Fraction(0)] * dim for _ in range(dim)]
            for p in range(k + 1):
                m = mat_mul(mats[p][a], mats[k - p][b])
                for i in range(dim):
                    for j in range(dim):
                        acc[i][j] += m[i][j]
            out[(a, b)] = acc
    return out


def product_table_cases():
    for dim in (4, 6, 8):
        sd = SymplecticData.standard(dim)
        yield f"rank_one.{dim}", rank_one_ladder(sd, 3, seed=dim)
        yield f"sum.{dim}", validated_sum_ladder(sd, 3, seed=dim)
        yield f"invalid.{dim}", invalid_ladder(sd, sd.n - 1)
    yield "random.4", random_symmetric_ladder(SymplecticData.standard(4), 3, seed=1)


@pytest.mark.parametrize("label", [label for label, _ in product_table_cases()])
def test_product_table_matches_dense_definition(label):
    curve = dict(product_table_cases())[label]
    for k in range(curve.cap + 1):
        table = curve.products(k)
        dense = dense_products(curve, k)
        want = {}
        for key, m in dense.items():
            entries = {(i, j): x for i, row in enumerate(m) for j, x in enumerate(row) if x}
            if entries:
                want[key] = entries
        assert table == want, (label, k)
        assert all(entries for entries in table.values())
        assert curve.products(k) is table  # cached
    if label.startswith("invalid"):
        assert curve.products(3) and not curve.products(2)


# Witnesses as the dense implementation reported them, per dimension, for
# invalid_ladder(sd, n - 1): (validity pair, Ricci-type triple).
INVALID_WITNESSES = {
    4: ((1, 3), (0, 1, 2)),
    6: ((2, 5), (0, 2, 3)),
    8: ((3, 7), (0, 3, 4)),
}


@pytest.mark.parametrize("dim", sorted(INVALID_WITNESSES))
def test_invalid_ladder_witnesses_are_pinned(dim):
    sd = SymplecticData.standard(dim)
    curve = invalid_ladder(sd, sd.n - 1)
    pair, triple = INVALID_WITNESSES[dim]
    assert validity_check(curve) == (
        False, {"identity": "A(X)A(Y) = 0", "order": 3, "pair": pair}
    )
    assert invariant_ricci_type_check(curve) == (False, {"order": 3, "triple": triple})
    with pytest.raises(PreconditionError) as exc:
        validity_check_cubes(curve)
    assert str(exc.value) == f"A^t(X) A^t(Y) != 0 at order 3, pair {pair}"
    with pytest.raises(PreconditionError) as exc:
        flatness_theorem_check(curve)
    assert str(exc.value) == (
        f"input is not Ricci type: {{'order': 3, 'triple': {triple}}}"
    )


def test_random_ladder_witnesses_are_pinned():
    """A non-nilpotent ladder fails at order 2 with rho^(2) nonzero, so the
    Ricci-type check compares against a nonzero right-hand side; the
    witnesses are those the dense implementation reported."""
    curve = random_symmetric_ladder(SymplecticData.standard(4), 3, seed=1)
    assert [bool(m) for m in rho_curve(curve)] == [
        False, False, True, False
    ]
    assert validity_check(curve) == (
        False, {"identity": "A(X)A(Y) = 0", "order": 2, "pair": (0, 0)}
    )
    assert invariant_ricci_type_check(curve) == (
        False, {"order": 2, "triple": (0, 0, 0)}
    )


def test_structure_maps_are_built_once_per_order(monkeypatch):
    """Validity, the Sp-invariants, the product tables and the Ricci-type
    check of a cap-3 ladder all read the rows cached on the curve: one
    `cube_rows` per order."""
    calls = []
    original = invariant.cube_rows

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(invariant, "cube_rows", counting)
    curve = validated_sum_ladder(SymplecticData.standard(4), 3, seed=2)
    assert validity_check(curve) == (True, None)
    cheap_invariants(curve)
    for k in range(curve.cap + 1):
        curve.products(k)
    assert invariant_ricci_type_check(curve) == (True, None)
    assert len(calls) == curve.cap + 1


def reference_cube_is_symmetric(cube):
    """The two-transposition check over every triple, as a test-only
    reference: (a b) and (b c) generate all orders of (a, b, c)."""
    dim = len(cube)
    for a, b, c in product(range(dim), repeat=3):
        if cube[a][b][c] != cube[b][a][c] or cube[a][b][c] != cube[a][c][b]:
            return False
    return True


def _random_symmetric_cube(rng, dim):
    values = {}
    for t in product(range(dim), repeat=3):
        key = tuple(sorted(t))
        if key not in values:
            values[key] = Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.4 else 0
    return [[[values[tuple(sorted((a, b, c)))] for c in range(dim)] for b in range(dim)]
            for a in range(dim)]


@pytest.mark.parametrize("dim", range(2, 9))
def test_cube_is_symmetric_agrees_with_the_transposition_check(dim):
    rng = random.Random(dim)
    verdicts = set()
    for _ in range(40):
        cube = _random_symmetric_cube(rng, dim)
        for _ in range(rng.randint(0, 3)):
            a, b, c = (rng.randrange(dim) for _ in range(3))
            cube[a][b][c] += rng.choice([Fraction(1, 2), -1, 2])
        want = reference_cube_is_symmetric(cube)
        assert invariant.cube_is_symmetric(cube) is want
        verdicts.add(want)
    assert verdicts == {True, False}


@pytest.mark.parametrize("dim", range(2, 9))
def test_cube_is_symmetric_catches_every_single_entry_change(dim):
    """Changing one entry keeps the cube symmetric only on the diagonal
    a = b = c; every other change is caught."""
    cube = _random_symmetric_cube(random.Random(100 + dim), dim)
    assert invariant.cube_is_symmetric(cube)
    for a, b, c in product(range(dim), repeat=3):
        old = cube[a][b][c]
        cube[a][b][c] = old + Fraction(1, 7)
        assert invariant.cube_is_symmetric(cube) is (a == b == c), (a, b, c)
        cube[a][b][c] = old


def test_unsorted_triples_are_counted_as_dim_cubed_minus_the_sorted_ones():
    for dim in range(2, 9):
        sorted_triples = (dim + 2) * (dim + 1) * dim // 6
        assert len(invariant._unsorted_triples(dim)) == dim**3 - sorted_triples


def test_structure_map_cubes_keep_fraction_entries_and_convert_the_rest():
    sd = SymplecticData.standard(4)
    half = Fraction(1, 2)
    cube = [[[half if (a, b, c) == (1, 1, 1) else 0 for c in range(4)] for b in range(4)]
            for a in range(4)]
    curve = StructureMapCurve(sd, 1, [zero_cube(4), cube])
    assert curve.cubes[1][1][1][1] is half
    assert all(type(x) is Fraction for plane in curve.cubes[1] for row in plane for x in row)
    assert curve == StructureMapCurve(sd, 1, [zero_cube(4), [[[Fraction(x) for x in row]
                                                              for row in plane] for plane in cube]])
