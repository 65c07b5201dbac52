import json
import random
from fractions import Fraction
from itertools import product
from math import lcm

import pytest

import sympconn.invariant as invariant
from sympconn.curvature import ConnectionCurve, curvature_bundle
from sympconn.errors import ConfigurationError, PreconditionError
from sympconn.fourier import FourierScalar, SymplecticData, TensorField
from sympconn.generate import (
    conjugated_flat_fixture,
    gradient_curve,
    rank_one_ladder,
)
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
from sympconn import euclidean, moduli, serialize
from sympconn.moduli import cheap_invariants, sp_action, sp_generators, validity_check
from sympconn.normalization import normalize_curve
from sympconn.rationals import GaussianRational

from references import e_vec, fraction_rows, mat_mul, validated_sum_ladder


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


def skew_omega(dim, mixed):
    """The standard pairing of e_a with e_(a+n) weighted 1, 2, 1/2, ...;
    with `mixed`, omega_12 = 1 too, so row 1 holds two entries.  Both are
    nondegenerate: the extra entry adds no perfect matching to the
    Pfaffian."""
    n = dim // 2
    lo = [[Fraction(0)] * dim for _ in range(dim)]
    for a in range(n):
        w = (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3))[a]
        lo[a][a + n], lo[a + n][a] = w, -w
    if mixed:
        lo[0][1], lo[1][0] = Fraction(1), Fraction(-1)
    return SymplecticData(lo)


@pytest.mark.parametrize("dim", [4, 6, 8])
@pytest.mark.parametrize("omega", ["standard", "skew", "mixed"])
def test_rank_one_cube_equals_the_dense_formula(dim, omega):
    """The cube built from the nonzero entries of w = omega(., v) equals the
    dense formula on random rational vectors, zeros among their entries,
    and every entry is a Fraction."""
    from references import rank_one_cube_dense

    sd = SymplecticData.standard(dim) if omega == "standard" else skew_omega(dim, omega == "mixed")
    rng = random.Random(dim)
    vectors = [e_vec(dim, a) for a in range(dim)]
    while len(vectors) < dim + 12:
        v = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.6
                  else Fraction(0) for _ in range(dim))
        if any(v):
            vectors.append(v)
    for v in vectors:
        cube = rank_one_cube(sd, v)
        assert cube == rank_one_cube_dense(sd, v)
        assert all(type(x) is Fraction for plane in cube for row in plane for x in row)
        entries = invariant.rank_one_entries(sd, v)
        assert entries == {(a, b, c): x for a, plane in enumerate(cube)
                           for b, row in enumerate(plane) for c, x in enumerate(row) if x}
        assert list(entries) == sorted(entries)


@pytest.mark.parametrize("dim", [4, 6])
def test_generated_ladders_equal_the_dense_references(dim):
    """`rank_one_ladder` and `validated_sum_ladder`, built in stored form,
    equal the dense Fraction constructions they replaced for seeds 0-99:
    the same stored orders, in the same key order, and the same dumps."""
    from references import rank_one_ladder_dense, validated_sum_ladder_dense

    sd = SymplecticData.standard(dim)
    for seed in range(100):
        cap = 1 + seed % 4
        for new, old in ((rank_one_ladder, rank_one_ladder_dense),
                         (validated_sum_ladder, validated_sum_ladder_dense)):
            got, want = new(sd, cap, seed=seed), old(sd, cap, seed=seed)
            assert got == want, (new.__name__, seed)
            assert [list(e.items()) for _, e in got.orders] == [
                list(e.items()) for _, e in want.orders]
            assert serialize.dumps(got) == serialize.dumps(want)


def test_a_float_or_bool_cube_entry_is_refused_by_its_slot():
    """A float or a bool in a dense cube, zero or not, is refused as a
    configuration error naming the entry, as the file parser refuses one;
    int and Fraction entries are read as before."""
    sd = SymplecticData.standard(4)
    for bad, kind in ((0.1, "float"), (0.0, "float"), (True, "bool"), (False, "bool")):
        cube = [[[Fraction(0)] * 4 for _ in range(4)] for _ in range(4)]
        cube[1][2][3] = bad
        message = rf"^cube entry \(1, 2, 3\) is a {kind}, not a rational$"
        with pytest.raises(ConfigurationError, match=message):
            invariant.integral_cube(4, cube)
        with pytest.raises(ConfigurationError, match=message):
            StructureMapCurve(sd, 1, [zero_cube(4), cube])
    for value, order in ((3, (1, {(1, 2, 3): 3})), (Fraction(-2, 4), (2, {(1, 2, 3): -1})),
                         (0, (1, {}))):
        cube[1][2][3] = value
        assert invariant.integral_cube(4, cube) == order


@pytest.mark.parametrize("size", [3, 5])
def test_a_dense_cube_of_the_wrong_shape_is_refused(size):
    """A 3- or 5-cube among dim-4 cubes is refused by name of the shape,
    not cut to its corner nor read out of range."""
    sd = SymplecticData.standard(4)
    with pytest.raises(ConfigurationError, match=r"^a cube needs 4 x 4 x 4 entries$"):
        StructureMapCurve(sd, 1, [zero_cube(4), zero_cube(size)])
    with pytest.raises(ConfigurationError, match=r"^a cube needs 4 x 4 x 4 entries$"):
        invariant.integral_cube(4, zero_cube(size))


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
    bundle = curvature_bundle(conn)
    assert all(t.is_zero() for t in bundle.R.orders)
    assert bundle.W.is_zero()
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


def cube_is_symmetric(cube):
    """Whether a dense cube is fully symmetric, as the package reads it: by
    `_is_symmetric` of its stored integral form."""
    return invariant._is_symmetric(invariant.integral_cube(len(cube), cube)[1])


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
        assert cube_is_symmetric(cube) is want
        verdicts.add(want)
    assert verdicts == {True, False}


@pytest.mark.parametrize("dim", range(2, 9))
def test_cube_is_symmetric_catches_every_single_entry_change(dim):
    """Changing one entry keeps the cube symmetric only on the diagonal
    a = b = c; every other change is caught."""
    cube = _random_symmetric_cube(random.Random(100 + dim), dim)
    assert cube_is_symmetric(cube)
    for a, b, c in product(range(dim), repeat=3):
        old = cube[a][b][c]
        cube[a][b][c] = old + Fraction(1, 7)
        assert cube_is_symmetric(cube) is (a == b == c), (a, b, c)
        cube[a][b][c] = old


def test_structure_map_cubes_read_back_as_the_fractions_given():
    """Int and Fraction entries are stored as ints over the least
    denominator and read back through `cubes` as Fractions."""
    sd = SymplecticData.standard(4)
    half = Fraction(1, 2)
    cube = [[[half if (a, b, c) == (1, 1, 1) else 0 for c in range(4)] for b in range(4)]
            for a in range(4)]
    curve = StructureMapCurve(sd, 1, [zero_cube(4), cube])
    assert curve.orders == [(1, {}), (2, {(1, 1, 1): 1})]
    assert curve.cubes[1][1][1][1] == half
    assert all(type(x) is Fraction for plane in curve.cubes[1] for row in plane for x in row)
    assert curve == StructureMapCurve(sd, 1, [zero_cube(4), [[[Fraction(x) for x in row]
                                                              for row in plane] for plane in cube]])


# -- the stored form against the dense Fraction path -----------------------------


def reference_as_cube(dim, array):
    """The dense cube of Fractions, as the curve once stored it."""
    r = range(dim)
    return tuple(tuple(tuple(Fraction(array[a][b][c]) for c in r) for b in r) for a in r)


def reference_rows(sdata, cube):
    """The sparse rows of each A(e_a) by a walk over the dense cube."""
    dim, hi = sdata.dim, sdata.omega_hi
    out = []
    for plane in cube:
        rows = {}
        for p in range(dim):
            row = {b: v for b in range(dim)
                   if (v := sum(hi[c][p] * plane[b][c] for c in range(dim) if hi[c][p]))}
            if row:
                rows[p] = row
        out.append(rows)
    return out


def reference_pullback(cube, c_inv):
    """S'(e_p, e_q, e_r) = S(C^{-1} e_p, C^{-1} e_q, C^{-1} e_r), dense, one
    slot at a time, over the nonzero c_inv[m][i] of each column i."""
    r = range(len(cube))
    col = [[m for m in r if c_inv[m][i]] for i in r]
    t = cube
    t = [[[sum(c_inv[m][i] * t[m][j][k] for m in col[i]) for k in r] for j in r] for i in r]
    t = [[[sum(c_inv[m][j] * t[i][m][k] for m in col[j]) for k in r] for j in r] for i in r]
    t = [[[sum(c_inv[m][k] * t[i][j][m] for m in col[k]) for k in r] for j in r] for i in r]
    return tuple(tuple(tuple(line) for line in plane) for plane in t)


def reference_dumps(sdata, cap, cubes):
    """The structure-map file text of dense cubes, through the json module."""
    obj = {"kind": "structure_map_curve", "version": 1, "dim": sdata.dim, "cap": cap,
           "omega": [[str(x) for x in row] for row in sdata.omega_lo],
           "cubes": [[[[str(x) for x in line] for line in plane] for plane in cube]
                     for cube in cubes]}
    return json.dumps(obj, indent=1) + "\n"


def least_denominator(cube):
    return lcm(*(x.denominator for plane in cube for line in plane for x in line))


def rational_omega(dim):
    """A non-standard form with a non-integral inverse; e_1..e_n stay
    pairwise omega-orthogonal, as the ladder generators need."""
    n = dim // 2
    rows = [[Fraction(0)] * dim for _ in range(dim)]
    for i in range(n):
        rows[i][n + i], rows[n + i][i] = Fraction(i + 1, 3), Fraction(-(i + 1), 3)
    rows[n][n + 1], rows[n + 1][n] = Fraction(1, 2), Fraction(-1, 2)
    return SymplecticData(rows)


def as_int_rows(rows):
    """Fraction rows in the (den, rows) form of `cube_rows`, over the lcm of
    their own denominators rather than den_k L_omega."""
    den = lcm(*(v.denominator for r in rows for row in r.values() for v in row.values()))
    return den, [{p: {b: int(v * den) for b, v in row.items()} for p, row in r.items()}
                 for r in rows]


class DenseRowsCurve(StructureMapCurve):
    """A curve whose rows come from the dense reference walk, so that its
    product tables and Ricci-type check run on the reference rows."""

    __slots__ = ()

    def rows(self, k):
        if self._rows is None:
            self._rows = [as_int_rows(reference_rows(self.sdata, cube)) for cube in self.cubes]
        return self._rows[k]


def scaled_ladders(sd, scale):
    def dense(curve):
        return [[[[scale * x for x in line] for line in plane] for plane in cube]
                for cube in curve.cubes]

    return [dense(rank_one_ladder(sd, 2, seed=3)), dense(validated_sum_ladder(sd, 2, seed=4)),
            dense(invalid_ladder(sd, 0))]


def _plain(cube):
    return tuple(tuple(tuple(row) for row in plane) for plane in cube)


def _random_word(rng, gens, dim):
    word = tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim))
    for _ in range(rng.randint(1, 3)):
        g = rng.choice(gens)
        word = tuple(tuple(sum(g[i][m] * word[m][j] for m in range(dim)) for j in range(dim))
                     for i in range(dim))
    return word


@pytest.mark.parametrize("dim", [4, 6, 8])
def test_every_dense_view_keeps_the_stored_form_of_its_entries(dim):
    """Over seeds 0-99, the curves of every constructor (dense cubes, dense
    views, `from_orders`, `loads`, the two ladder generators, `sp_action`
    and `normalize_curve`) give `cubes` as `DenseCube`s equal to their plain
    nested-tuple copies, each keeping the very order it was read from, and
    that order is what `integral_cube` reads off the plain copy."""
    sd = SymplecticData.standard(dim)
    gens = sp_generators(sd)
    for seed in range(100):
        rng = random.Random(seed)
        cap = 2 + seed % 2
        ladder = validated_sum_ladder(sd, cap, seed=seed)
        scale = Fraction(rng.choice((-5, -1, 2, 3)), rng.randint(1, 6))
        dense = [[[[scale * x for x in row] for row in plane] for plane in cube]
                 for cube in ladder.cubes]
        scaled = StructureMapCurve(sd, cap, dense)
        curves = {
            "dense": scaled,
            "views": StructureMapCurve(sd, cap, ladder.cubes),
            "from_orders": StructureMapCurve.from_orders(sd, cap, [
                invariant.integral_form({key: scale * Fraction(v, den)
                                         for key, v in entries.items()})
                for den, entries in ladder.orders]),
            "loads": serialize.loads(serialize.dumps(scaled)),
            "rank_one_ladder": rank_one_ladder(sd, cap, seed=seed),
            "validated_sum_ladder": ladder,
            "sp_action": sp_action(_random_word(rng, gens, dim), scaled),
            "normalize_curve": normalize_curve(
                conjugated_flat_fixture(seed, dim, cap)[2]).flat_curve,
        }
        for name, curve in curves.items():
            for k, view in enumerate(curve.cubes):
                plain = _plain(view)
                assert type(view) is invariant.DenseCube and view == plain
                assert view.stored is curve.orders[k]
                assert invariant.integral_cube(dim, view) is view.stored
                assert view.stored == invariant.integral_cube(dim, plain), (name, seed, k)


@pytest.mark.parametrize("dim", [4, 6, 8])
def test_stored_form_matches_the_dense_fraction_reference(dim):
    """Ladders scaled by 1/3 and -5/6: the dense view, the least
    denominators (also after random generator words), the action, the file
    text, and, under the standard and a rational omega, the rows, the
    product tables and the Ricci-type check all agree with the dense
    Fraction path."""
    rng = random.Random(dim)
    verdicts = set()
    for sd in (SymplecticData.standard(dim), rational_omega(dim)):
        gens = sp_generators(sd) if sd.is_standard() else None
        for scale in (Fraction(1, 3), Fraction(-5, 6)):
            for cubes in scaled_ladders(sd, scale):
                cap = len(cubes) - 1
                curve = StructureMapCurve(sd, cap, cubes)
                ref = [reference_as_cube(dim, c) for c in cubes]
                assert curve.cubes == ref
                assert [den for den, _ in curve.orders] == [least_denominator(c) for c in ref]
                for (den, entries), cube in zip(curve.orders, ref):
                    assert entries == {(a, b, c): int(den * x) for a, plane in enumerate(cube)
                                       for b, line in enumerate(plane)
                                       for c, x in enumerate(line) if x}
                assert serialize.dumps(curve) == reference_dumps(sd, cap, ref)
                dense = DenseRowsCurve(sd, cap, cubes)
                for k in range(cap + 1):
                    assert fraction_rows(curve.rows(k)) == reference_rows(sd, ref[k])
                    assert curve.products(k) == dense.products(k)
                verdict = invariant_ricci_type_check(curve)
                assert verdict == invariant_ricci_type_check(dense)
                verdicts.add(verdict[0])
                if gens is None:
                    continue
                for _ in range(2):
                    word = tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim))
                    for _ in range(rng.randint(1, 3)):
                        g = rng.choice(gens)
                        word = tuple(tuple(sum(g[i][m] * word[m][j] for m in range(dim))
                                           for j in range(dim)) for i in range(dim))
                    moved = sp_action(word, curve)
                    assert [den for den, _ in moved.orders] == [den for den, _ in curve.orders]
                    c_inv = sd.symplectic_inverse(word)
                    assert moved.cubes == [reference_pullback(c, c_inv) for c in ref]
                    assert [least_denominator(c) for c in moved.cubes] == [
                        den for den, _ in moved.orders]
    assert verdicts == {True, False}


def dense_table_entries(dense):
    """`dense_products` as the sparse table form: nonzero entries only."""
    out = {}
    for key, m in dense.items():
        entries = {(i, j): x for i, row in enumerate(m) for j, x in enumerate(row) if x}
        if entries:
            out[key] = entries
    return out


def reference_rho(sd, dense):
    """rho^(k) = sum_{i,b} (X_i)_b P_k[i, b] over the dense product table."""
    dim, lower = sd.dim, sd.dual_basis()
    acc = [[Fraction(0)] * dim for _ in range(dim)]
    for (i, b), m in dense.items():
        for p in range(dim):
            for q in range(dim):
                acc[p][q] += lower[i][b] * m[p][q]
    return {(p, q): x for p, row in enumerate(acc) for q, x in enumerate(row) if x}


@pytest.mark.parametrize("dim", [4, 6])
@pytest.mark.parametrize("seed", range(3))
def test_mixed_denominators_under_a_rational_omega_match_the_dense_reference(dim, seed):
    """Random symmetric ladders with order k scaled by 1, 1/5, 2/7, 3/11 and
    4/13, so their orders have different least denominators, under an omega
    whose inverse is not integral: the rows are ints over den_k L_omega, and
    the rows, product tables, rho and Ricci-type verdict equal the dense
    Fraction reference.  At order 4 the pairs (1, 3), (2, 2) and (3, 1) have
    different row-denominator products, so the table sums over their lcm."""
    sd = rational_omega(dim)
    scale_omega = lcm(*(x.denominator for row in sd.omega_hi for x in row))
    assert scale_omega > 1
    scales = [Fraction(1), Fraction(1, 5), Fraction(2, 7), Fraction(3, 11), Fraction(4, 13)]
    base = random_symmetric_ladder(sd, 4, seed=100 * dim + seed)
    cubes = [[[[scale * x for x in line] for line in plane] for plane in cube]
             for scale, cube in zip(scales, base.cubes)]
    curve = StructureMapCurve(sd, 4, cubes)
    dens = [den for den, entries in curve.orders if entries]
    assert len(set(dens)) == len(dens) == 4
    dense_curve = DenseRowsCurve(sd, 4, cubes)
    rho = rho_curve(curve)
    nonzero_tables = 0
    for k, (den, _) in enumerate(curve.orders):
        ref = reference_as_cube(dim, cubes[k])
        assert curve.rows(k)[0] == den * scale_omega
        assert fraction_rows(curve.rows(k)) == reference_rows(sd, ref)
        dense = dense_products(curve, k)
        assert curve.products(k) == dense_table_entries(dense) == dense_curve.products(k)
        assert rho[k] == reference_rho(sd, dense)
        nonzero_tables += bool(curve.products(k))
    assert nonzero_tables >= 2 and curve.products(4)
    assert invariant_ricci_type_check(curve) == invariant_ricci_type_check(dense_curve)


def reference_swap_witness(cube):
    """The first (a, b) with S_ab. != S_ba., by the dense walk."""
    dim = len(cube)
    return next(((a, b) for a in range(dim) for b in range(dim) if cube[a][b] != cube[b][a]),
                None)


@pytest.mark.parametrize("dim", [4, 6])
def test_validity_swap_witness_matches_the_dense_walk(dim):
    """Cubes built unvalidated with a few entries changed or zeroed: the
    A(X)Y = A(Y)X witness read from the stored entries is the dense walk's."""
    rng = random.Random(50 + dim)
    sd = SymplecticData.standard(dim)
    witnesses = set()
    for _ in range(40):
        cube = _random_symmetric_cube(rng, dim)
        for _ in range(rng.randint(1, 3)):
            a, b, c = (rng.randrange(dim) for _ in range(3))
            cube[a][b][c] = rng.choice([0, Fraction(1, 2), -1])
        pair = reference_swap_witness(cube)
        ok, witness = validity_check(StructureMapCurve(sd, 1, [zero_cube(dim), cube],
                                                        validate=False))
        if pair is None:
            assert ok or witness["identity"] == "A(X)A(Y) = 0"
        else:
            assert (ok, witness) == (False, {"identity": "A(X)Y = A(Y)X", "order": 1,
                                             "pair": pair})
        witnesses.add(pair)
    assert None in witnesses and len(witnesses) > 5


def test_the_dense_cube_paths_are_gone():
    """One stored form: the dense conversions, the moduli module's own
    integer form and the dense constant-tensor constructor do not return."""
    for name in ("_as_rational", "_as_cube", "cube_is_zero", "_unsorted_triples"):
        assert not hasattr(invariant, name)
    for name in ("_cube_entries", "_scaled", "_matcher_data"):
        assert not hasattr(moduli, name)
    assert not hasattr(TensorField, "from_constant")


def test_psi_At_reads_the_rows_the_curve_caches(monkeypatch):
    """psi_At builds each order's field from rows(k): at most one
    `cube_rows` per order, under either module's name, and none on a
    second call."""
    calls = []

    def counting(original):
        def wrapper(*args):
            calls.append(args)
            return original(*args)
        return wrapper

    monkeypatch.setattr(invariant, "cube_rows", counting(invariant.cube_rows))
    monkeypatch.setattr(euclidean, "cube_rows", counting(euclidean.cube_rows))
    for cap in (1, 3):
        valid = validated_sum_ladder(SymplecticData.standard(6), cap, seed=cap)
        curve = StructureMapCurve.from_orders(valid.sdata, cap, list(valid.orders))
        calls.clear()
        fields = euclidean.psi_At(curve)
        assert len(fields) == cap + 1 and len(calls) == cap + 1
        calls.clear()
        assert euclidean.psi_At(curve) == fields and calls == []
