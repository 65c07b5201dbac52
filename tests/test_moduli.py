from fractions import Fraction

import pytest

from sympconn import moduli
from sympconn.curvature import curvature_bundle, require_ricci_type
from sympconn.errors import ConfigurationError, InternalInconsistency, PreconditionError
from sympconn.fourier import SymplecticData
from sympconn.generate import rank_one_ladder, validated_sum_ladder
from sympconn.invariant import StructureMapCurve, embed_invariant, rank_one_cube, zero_cube
from sympconn.linalg import inverse, matrix
from sympconn.moduli import (
    ModuliClassQuery,
    cheap_invariants,
    equivalence_semidecide,
    sp_action,
    sp_generators,
    validity_check,
)

SD = SymplecticData.standard(4)
IDENT = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))


def mat_mul_int(a, b):
    r = range(len(a))
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in r) for j in r) for i in r)


def test_generators_are_symplectic_and_closed_under_inverse():
    gens = sp_generators(SD)
    assert len(gens) == 12
    mats = set(gens)
    for g in gens:
        gf = tuple(tuple(Fraction(x) for x in row) for row in g)
        assert SD.is_symplectic_matrix(gf)
    # every generator's inverse is in the list
    for g in gens:
        assert any(mat_mul_int(g, h) == IDENT for h in gens)


def test_generators_are_built_once_per_omega():
    gens = sp_generators(SD)
    assert type(gens) is tuple
    assert sp_generators(SymplecticData.standard(4)) is gens


def test_action_refuses_a_matrix_with_a_long_row():
    a = rank_one_ladder(SD, 2, seed=3)
    with pytest.raises(PreconditionError, match="^matrix is not in the lattice symplectic group$"):
        sp_action((IDENT[0] + (0,),) + IDENT[1:], a)


def test_action_is_a_group_action():
    a = rank_one_ladder(SD, 2, seed=3)
    gens = sp_generators(SD)
    g1, g2 = gens[0], gens[3]
    assert sp_action(IDENT, a) == a
    assert sp_action(g1, sp_action(g2, a)) == sp_action(mat_mul_int(g1, g2), a)


def test_action_preserves_validity_and_invariants():
    a = validated_sum_ladder(SD, 2, seed=7)
    g = sp_generators(SD)[1]
    moved = sp_action(g, a)
    ok, witness = validity_check(moved)
    assert ok, witness
    assert cheap_invariants(moved) == cheap_invariants(a)


def test_validity_check_names_a_broken_symmetry_of_a_x_y():
    """S_012 = 1 alone is not symmetric in its first two slots, so
    A(e_0) e_1 != A(e_1) e_0; the identity check reports that pair before
    any product is formed."""
    cube = [[[0] * 4 for _ in range(4)] for _ in range(4)]
    cube[0][1][2] = 1
    curve = StructureMapCurve(SD, 1, [cube], validate=False)
    witness = {"identity": "A(X)Y = A(Y)X", "order": 1, "pair": (0, 1)}
    assert validity_check(curve) == (False, witness)
    with pytest.raises(PreconditionError) as err:
        moduli.require_valid(curve)
    assert str(err.value) == f"invalid structure-map curve: {witness}"


def test_action_rejects_non_symplectic_matrix():
    a = rank_one_ladder(SD, 1, seed=0)
    bad = [[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    with pytest.raises(PreconditionError):
        sp_action(bad, a)


@pytest.mark.parametrize("bad", [
    # integral after truncation by int(): symplectic, and the identity on a
    [[1, Fraction(1, 2), 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, Fraction(-1, 3), 1]],
    [[1.7, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
])
def test_action_rejects_non_integral_matrix(bad):
    a = rank_one_ladder(SD, 2, seed=3)
    with pytest.raises(PreconditionError, match="not in the lattice symplectic group"):
        sp_action(bad, a)


def test_action_accepts_integral_entries_of_any_type():
    a = rank_one_ladder(SD, 2, seed=3)
    g = sp_generators(SD)[1]
    as_fractions = [[Fraction(x) for x in row] for row in g]
    as_floats = [[float(x) for x in row] for row in g]
    assert sp_action(as_fractions, a) == sp_action(as_floats, a) == sp_action(g, a)


def test_self_equivalence_yields_identity_witness():
    a = rank_one_ladder(SD, 2, seed=4)
    verdict = equivalence_semidecide(ModuliClassQuery(a, a, 1))
    assert verdict.kind == "equivalent"
    assert verdict.witness == IDENT


def test_plant_and_recover():
    a = rank_one_ladder(SD, 2, seed=5)
    gens = sp_generators(SD)
    planted = mat_mul_int(gens[2], gens[5])
    verdict = equivalence_semidecide(ModuliClassQuery(a, sp_action(planted, a), 2))
    assert verdict.kind == "equivalent"
    assert sp_action(verdict.witness, a) == sp_action(planted, a)


def rank_distinct_pair():
    def e_vec(i):
        return tuple(Fraction(1) if j == i else Fraction(0) for j in range(4))

    one = StructureMapCurve(SD, 1, [zero_cube(4), rank_one_cube(SD, e_vec(0))])
    two_cube = [
        [[rank_one_cube(SD, e_vec(0))[a][b][c] + rank_one_cube(SD, e_vec(1))[a][b][c]
          for c in range(4)] for b in range(4)]
        for a in range(4)
    ]
    two = StructureMapCurve(SD, 1, [zero_cube(4), two_cube])
    return one, two


def test_rank_distinct_pair():
    one, two = rank_distinct_pair()
    verdict = equivalence_semidecide(ModuliClassQuery(one, two, 2))
    assert verdict.kind == "distinct"
    assert verdict.separating["order"] == 1


def test_bound_exhaustion_is_honest():
    """Scaling a cube by 5 preserves every cheap invariant but no short word
    relates the curves, so the verdict must be bound exhaustion."""
    a = StructureMapCurve(
        SD, 1,
        [zero_cube(4),
         rank_one_cube(SD, tuple(Fraction(1) if j == 0 else Fraction(0) for j in range(4)))],
    )
    scaled = StructureMapCurve(
        SD, 1,
        [a.cubes[0]] + [
            [[[5 * x for x in row] for row in plane] for plane in a.cubes[1]]
        ],
    )
    verdict = equivalence_semidecide(ModuliClassQuery(a, scaled, 1))
    assert verdict.kind == "no_witness_within_bound"
    assert verdict.bound == 1


def test_invalid_curve_rejected():
    def e_vec(i):
        return tuple(Fraction(1) if j == i else Fraction(0) for j in range(4))

    bad = StructureMapCurve(
        SD, 3,
        [zero_cube(4), rank_one_cube(SD, e_vec(0)), rank_one_cube(SD, e_vec(2)),
         zero_cube(4)],
    )
    good = rank_one_ladder(SD, 3, seed=1)
    with pytest.raises(PreconditionError):
        equivalence_semidecide(ModuliClassQuery(bad, good, 1))


def descend_check(b_curve):
    """Test-only reference: embed as a torus-invariant connection curve and
    verify, on the torus side, that a valid structure map really is flat and
    Ricci type."""
    moduli.require_valid(b_curve)
    conn = embed_invariant(b_curve)
    require_ricci_type(curvature_bundle(conn))
    assert all(t.is_zero() for t in conn.curvature.orders)
    return conn


def test_descend_check():
    conn = descend_check(validated_sum_ladder(SD, 2, seed=11))
    assert conn.is_invariant()


def _must_not_run(*args):
    raise AssertionError("the word search ran although it must not")


def _forbid_moving_curves(monkeypatch):
    """The search tries each word with the matcher `_moves_to` and verifies
    its witness with `sp_action`; with both patched out, no curve moves."""
    monkeypatch.setattr(moduli, "_moves_to", _must_not_run)
    monkeypatch.setattr(moduli, "sp_action", _must_not_run)


def test_negative_bound_rejected(monkeypatch):
    _forbid_moving_curves(monkeypatch)
    a = rank_one_ladder(SD, 2, seed=4)
    with pytest.raises(ConfigurationError, match=">= 0, got -1"):
        equivalence_semidecide(ModuliClassQuery(a, a, -1))


def test_huge_bound_hits_word_ceiling_before_any_action(monkeypatch):
    """10**9 would mean ~12**(10**9) words; the breadth-first enumeration
    stops once it holds MAX_SEARCH_WORDS matrices (during length 5 at dim
    4) and no curve is moved, although a == b has the length-0 witness."""
    _forbid_moving_curves(monkeypatch)
    a = rank_one_ladder(SD, 2, seed=4)
    with pytest.raises(ConfigurationError) as exc:
        equivalence_semidecide(ModuliClassQuery(a, a, 10**9))
    assert str(exc.value) == (
        f"word search bound {10**9} exceeds the ceiling of "
        f"{moduli.MAX_SEARCH_WORDS} words (reached at word length 5)"
    )


def test_word_ceiling_is_checked_while_enumerating(monkeypatch):
    gens = sp_generators(SD)
    assert len(moduli._words_up_to(gens, 4, 3)) == 756 < moduli.MAX_SEARCH_WORDS
    monkeypatch.setattr(moduli, "MAX_SEARCH_WORDS", 100)
    assert len(moduli._words_up_to(gens, 4, 1)) == 13
    with pytest.raises(ConfigurationError, match="ceiling of 100 words .*length 2"):
        moduli._words_up_to(gens, 4, 3)


def test_huge_bound_keeps_the_distinct_verdict(monkeypatch):
    """Cheap invariants decide before any word is enumerated."""
    monkeypatch.setattr(moduli, "_words_up_to", _must_not_run)
    one, two = rank_distinct_pair()
    verdict = equivalence_semidecide(ModuliClassQuery(one, two, 10**9))
    assert verdict.kind == "distinct"


def _depth_one_pair():
    a = rank_one_ladder(SD, 2, seed=5)
    moves = [sp_action(g, a) for g in sp_generators(SD)]
    return a, next(b for b in moves if b != a)


def test_search_returns_the_exhaustive_minimum():
    """Stopping at the first length with a witness gives the witness the
    exhaustive search picks: the least (length, matrix) over all words."""
    a, b = _depth_one_pair()
    words = moduli._words_up_to(sp_generators(SD), 4, 3)
    exhaustive = min((depth, m) for m, depth in words.items() if sp_action(m, a) == b)
    assert exhaustive[0] == 1
    verdict = equivalence_semidecide(ModuliClassQuery(a, b, 3))
    assert verdict.kind == "equivalent"
    assert verdict.witness == exhaustive[1]


def test_search_verifies_its_witness_through_sp_action(monkeypatch):
    """A matcher that accepts every word makes the identity the witness;
    the full sp_action check of that witness must refuse it."""
    a, b = _depth_one_pair()
    monkeypatch.setattr(moduli, "_moves_to", lambda *args: True)
    with pytest.raises(InternalInconsistency, match="does not carry a to b"):
        equivalence_semidecide(ModuliClassQuery(a, b, 1))


def test_search_tries_no_word_longer_than_the_witness(monkeypatch):
    a, b = _depth_one_pair()
    words = moduli._words_up_to(sp_generators(SD), 4, 3)
    tried = []
    matcher = moduli._moves_to

    def counting(m, *args):
        tried.append(m)
        return matcher(m, *args)

    monkeypatch.setattr(moduli, "_moves_to", counting)
    verdict = equivalence_semidecide(ModuliClassQuery(a, b, 3))
    assert words[verdict.witness] == 1
    assert max(words[m] for m in tried) == 1
    assert len(tried) == sum(1 for depth in words.values() if depth <= 1) == 13


def _scale_curve(curve, c):
    return StructureMapCurve(
        curve.sdata, curve.cap,
        [[[[c * x for x in row] for row in plane] for plane in cube] for cube in curve.cubes],
    )


@pytest.mark.parametrize("dim, bound, divisor", [(4, 3, 1), (4, 3, 3), (6, 2, 3)])
def test_matcher_agrees_with_sp_action_on_every_word(dim, bound, divisor):
    """For every word up to the bound, the search's per-word matcher gives
    sp_action(C, a) == b on a planted-equivalent pair, a scaled pair (5 a)
    and a rank-one/sum pair, and its integral C^{-1} is linalg's inverse.
    A divisor of 3 puts denominators into a, so some of its dens are 3;
    the halved sum ladder has a den of 2 at dim 6."""
    sdata = SymplecticData.standard(dim)
    gens = sp_generators(sdata)
    words = moduli._words_up_to(gens, dim, bound)
    assert len(words) == {4: 756, 6: 222}[dim]
    a = _scale_curve(rank_one_ladder(sdata, 2, seed=5), Fraction(1, divisor))
    planted = mat_mul_int(gens[2], gens[-1])
    pairs = {
        "planted": sp_action(planted, a),
        "scaled": _scale_curve(a, 5),
        "sum": _scale_curve(validated_sum_ladder(sdata, 2, seed=7), Fraction(1, 2)),
    }
    columns = moduli._word_table(gens, dim)[2]
    found = {name: 0 for name in pairs}
    for m in words:
        assert sdata.symplectic_inverse(m) == inverse(matrix(m))
        moved = sp_action(m, a)
        for name, b in pairs.items():
            match = moduli._moves_to(m, columns, a, b)
            assert match == (moved == b), (name, m)
            found[name] += match
    assert found["planted"] >= 1 and found["scaled"] == found["sum"] == 0


def dense_pullback(cube, c_mat):
    """S'(e_p, e_q, e_r) = S(C^{-1} e_p, C^{-1} e_q, C^{-1} e_r) over every
    entry, one slot at a time, with C^{-1} from Gauss-Jordan."""
    g = inverse(matrix(c_mat))
    r = range(len(c_mat))
    t = cube
    t = [[[sum(g[m][i] * t[m][j][k] for m in r) for k in r] for j in r] for i in r]
    t = [[[sum(g[m][j] * t[i][m][k] for m in r) for k in r] for j in r] for i in r]
    t = [[[sum(g[m][k] * t[i][j][m] for m in r) for k in r] for j in r] for i in r]
    return tuple(tuple(tuple(line) for line in plane) for plane in t)


def test_sp_action_matches_a_dense_pullback():
    a = _scale_curve(validated_sum_ladder(SD, 2, seed=7), Fraction(1, 3))
    for m in moduli._words_up_to(sp_generators(SD), 4, 2):
        assert sp_action(m, a).cubes == [dense_pullback(cube, m) for cube in a.cubes], m


# -- the per-omega word table ---------------------------------------------------


def reference_words_up_to(gens, dim, bound):
    """The breadth-first enumeration rebuilt from scratch on every call, as
    the search first ran it: {matrix: shortest word length}."""
    ident = tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim))
    seen = {ident: 0}
    frontier = [ident]
    for depth in range(1, bound + 1):
        new_frontier = []
        for m in frontier:
            for g in gens:
                prod = mat_mul_int(g, m)
                if prod not in seen:
                    seen[prod] = depth
                    new_frontier.append(prod)
        frontier = new_frontier
    return seen


@pytest.mark.parametrize("dim", [4, 6])
@pytest.mark.parametrize("order", [(3, 1, 2), (1, 3), (0, 2, 2, 3, 3), (3, 3)])
def test_word_table_matches_the_reference_in_any_call_order(dim, order):
    gens = sp_generators(SymplecticData.standard(dim))
    moduli._word_table.cache_clear()
    for bound in order:
        got = moduli._words_up_to(gens, dim, bound)
        assert list(got.items()) == list(reference_words_up_to(gens, dim, bound).items())


def test_word_table_hands_out_a_new_mapping_on_every_call():
    gens = sp_generators(SD)
    words = moduli._words_up_to(gens, 4, 2)
    expected = list(words.items())
    words.clear()
    assert list(moduli._words_up_to(gens, 4, 2).items()) == expected
    again = moduli._words_up_to(gens, 4, 2)
    again[IDENT] = 99
    del again[next(m for m, depth in again.items() if depth == 2)]
    assert list(moduli._words_up_to(gens, 4, 2).items()) == expected


def _refusal(gens, bound):
    with pytest.raises(ConfigurationError) as exc:
        moduli._words_up_to(gens, 4, bound)
    return str(exc.value)


def test_a_refused_bound_leaves_the_word_table_whole(monkeypatch):
    gens = sp_generators(SD)
    reference = list(reference_words_up_to(gens, 4, 3).items())
    moduli._word_table.cache_clear()
    text = _refusal(gens, 5)
    assert text == (f"word search bound 5 exceeds the ceiling of {moduli.MAX_SEARCH_WORDS} "
                    f"words (reached at word length 5)")
    # levels 0..4 (4570 words) are whole; no part of level 5 was kept
    assert [len(level) for level in moduli._word_table(gens, 4)[0]] == [1, 12, 97, 646, 3814]
    assert list(moduli._words_up_to(gens, 4, 3).items()) == reference
    assert _refusal(gens, 5) == text

    moduli._word_table.cache_clear()
    monkeypatch.setattr(moduli, "MAX_SEARCH_WORDS", 100)
    low = _refusal(gens, 3)
    assert low == "word search bound 3 exceeds the ceiling of 100 words (reached at word length 2)"
    assert [len(level) for level in moduli._word_table(gens, 4)[0]] == [1, 12]
    assert _refusal(gens, 3) == low
    monkeypatch.undo()
    assert list(moduli._words_up_to(gens, 4, 3).items()) == reference
    # a lower ceiling applies to levels the table already holds
    monkeypatch.setattr(moduli, "MAX_SEARCH_WORDS", 100)
    assert _refusal(gens, 3) == low
    assert len(moduli._words_up_to(gens, 4, 1)) == 13


def test_word_tables_are_kept_for_the_last_omegas_only():
    """Searches under more omegas than the cache keeps: the number of tables
    held never passes the bound, a released table is rebuilt on its next
    search, and every verdict and witness is the one a fresh cache gives."""
    dims = (4, 6, 8, 10, 12)
    assert len(dims) > moduli.WORD_TABLES_KEPT

    def verdict(dim):
        sdata = SymplecticData.standard(dim)
        a = rank_one_ladder(sdata, 2, seed=5)
        b = sp_action(sp_generators(sdata)[2], a)
        v = equivalence_semidecide(ModuliClassQuery(a, b, 1))
        assert moduli._word_table.cache_info().currsize <= moduli.WORD_TABLES_KEPT
        return v.kind, v.witness

    fresh = []
    for dim in dims:
        moduli._word_table.cache_clear()
        fresh.append(verdict(dim))
    moduli._word_table.cache_clear()
    assert [verdict(dim) for dim in dims] == fresh
    assert moduli._word_table.cache_info().currsize == moduli.WORD_TABLES_KEPT
    # dim 4 was released by dim 12, and its search still finds its witness
    assert [verdict(dim) for dim in dims] == fresh
    assert all(kind == "equivalent" for kind, _ in fresh)


@pytest.mark.parametrize("dim", [4, 6])
def test_word_table_inverses_are_the_symplectic_inverses(dim):
    """Every word's stored inverse is its symplectic inverse, and its stored
    columns are the nonzero columns of that inverse: per a, the (p, x) with
    x = (C^{-1})[a][p] nonzero, C^{-1} e_p = sum_a x e_a, in order of p."""
    sdata = SymplecticData.standard(dim)
    gens = sp_generators(sdata)
    words = moduli._words_up_to(gens, dim, 3 if dim == 4 else 2)
    _, inverses, columns, _, _ = moduli._word_table(gens, dim)
    assert set(words) <= set(inverses) == set(columns)
    for m, m_inv in inverses.items():
        assert m_inv == sdata.symplectic_inverse(m)
        assert columns[m] == tuple(tuple((p, x) for p, x in enumerate(row) if x)
                                   for row in m_inv)


def test_a_repeated_refusal_enumerates_nothing(monkeypatch):
    """The word table records how far a refused enumeration got: the same
    refusal again, or a longer bound under the same ceiling, makes no
    matrix product, and the table keeps whole levels only, at most
    MAX_SEARCH_WORDS matrices."""
    gens = sp_generators(SD)
    moduli._word_table.cache_clear()
    text = _refusal(gens, 5)
    levels, inverses, _, _, _ = moduli._word_table(gens, 4)
    sizes = [len(level) for level in levels]
    assert sum(sizes) == len(inverses) <= moduli.MAX_SEARCH_WORDS
    calls = []
    times = moduli._times

    def counting(*args):
        calls.append(args)
        return times(*args)

    monkeypatch.setattr(moduli, "_times", counting)
    assert _refusal(gens, 5) == text
    assert _refusal(gens, 9) == text.replace("bound 5", "bound 9")
    assert calls == []
    assert [len(level) for level in levels] == sizes and sum(sizes) == len(inverses)
    assert len(moduli._words_up_to(gens, 4, 4)) == sum(sizes) and calls == []


def test_a_halved_ladder_has_no_witness():
    """B integral and B/2 have the same ints, the same cheap invariants and
    different dens; every word keeps den, so the search ends without a
    witness, and never with a witness that sp_action refuses."""
    e0, e1 = ((1, 0, 0, 0), (0, 1, 0, 0))
    b = StructureMapCurve(SD, 2, [zero_cube(4), rank_one_cube(SD, e0), rank_one_cube(SD, e1)])
    half = _scale_curve(b, Fraction(1, 2))
    assert [den for den, _ in b.orders] == [1, 1, 1]
    assert [den for den, _ in half.orders] == [1, 2, 2]
    assert [entries for _, entries in b.orders] == [entries for _, entries in half.orders]
    assert cheap_invariants(b) == cheap_invariants(half)
    for x, y in ((b, half), (half, b)):
        verdict = equivalence_semidecide(ModuliClassQuery(x, y, 2))
        assert (verdict.kind, verdict.bound) == ("no_witness_within_bound", 2)


def test_action_refuses_a_cube_that_is_not_symmetric():
    """An unvalidated curve with a cube that is not symmetric is refused by
    the action's own validation, as a curve built from it would be."""
    skew = [[[0] * 4 for _ in range(4)] for _ in range(4)]
    skew[0][1][2] = 1
    curve = StructureMapCurve(SD, 1, [zero_cube(4), skew], validate=False)
    with pytest.raises(ConfigurationError, match="^order-1 cube is not fully symmetric$"):
        sp_action(IDENT, curve)
