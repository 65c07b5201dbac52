import random
from fractions import Fraction

import pytest

from sympconn import moduli
from sympconn.errors import ConfigurationError
from sympconn.fourier import SymplecticData
from sympconn.generate import rank_one_ladder
from sympconn.linalg import inverse, rank

from references import mat_mul, validated_sum_ladder


def identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def random_matrix(rng, n):
    """A small rational n x n matrix; about half are made singular by
    replacing a row with a combination of two others (or with zeros)."""
    rows = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
            for _ in range(n)]
    if rng.random() < 0.5:
        i, j, k = (rng.randrange(n) for _ in range(3))
        x, y = Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2), 3)
        rows[i] = [x * a + y * b if j != i and k != i else 0
                   for a, b in zip(rows[j], rows[k])]
    return tuple(tuple(Fraction(v) for v in row) for row in rows)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_rank_and_inverse_agree_on_random_matrices(n):
    """rank(a) == n exactly when inverse(a) succeeds, and then
    inverse(a) a == I; singular input fails with "singular matrix"."""
    rng = random.Random(n)
    seen = set()
    for _ in range(60):
        a = random_matrix(rng, n)
        r = rank(a)
        assert 0 <= r <= n
        try:
            inv = inverse(a)
        except ConfigurationError as exc:
            assert str(exc) == "singular matrix"
            assert r < n
            seen.add("singular")
        else:
            assert r == n
            assert mat_mul(inv, a) == identity(n)
            assert mat_mul(a, inv) == identity(n)
            seen.add("regular")
    assert seen == {"singular", "regular"}


def test_rank_of_rectangular_and_empty_matrices():
    assert rank([]) == 0
    assert rank([(0, 0, 0)]) == 0
    assert rank([(1, 2, 3), (2, 4, 6)]) == 1
    assert rank([(1, 0), (0, 1), (1, 1)]) == 2


def reference_rank(rows):
    """The Fraction Gauss-Jordan rank, as a test-only reference."""
    rows = [[Fraction(x) for x in r] for r in rows if any(r)]
    r = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rows[r] = [x / rows[r][col] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def random_low_rank(rng, n_rows, n_cols, n_base):
    """Rational combinations of n_base random rows, denominators up to 7,
    with a zero row put in about a third of the time."""
    base = [[Fraction(rng.randint(-9, 9), rng.randint(1, 7)) if rng.random() < 0.6 else 0
             for _ in range(n_cols)] for _ in range(n_base)]
    rows = [[sum(c * b[j] for c, b in zip(cs, base)) for j in range(n_cols)]
            for cs in ([Fraction(rng.randint(-3, 3), rng.randint(1, 7)) for _ in base]
                       for _ in range(n_rows))]
    if rows and rng.random() < 1 / 3:
        rows[rng.randrange(n_rows)] = [Fraction(0)] * n_cols
    return [tuple(row) for row in rows]


def test_rank_matches_the_fraction_reference_on_random_rational_matrices():
    rng = random.Random(7)
    ranks = set()
    for _ in range(400):
        n_rows, n_cols = rng.randint(0, 9), rng.randint(1, 9)
        a = random_low_rank(rng, n_rows, n_cols, rng.randint(1, 6))
        assert rank(a) == reference_rank(a), a
        ranks.add(rank(a))
    assert ranks == set(range(7))
    for a in ([], [()], [(0,) * 5] * 3, [(Fraction(1, 7), 0, Fraction(-2, 3))],
              [(1, Fraction(1, 2)), (2, 1), (0, 0)]):
        assert rank(a) == reference_rank(a)


@pytest.mark.parametrize("dim", [4, 6, 8])
def test_cheap_invariants_match_the_fraction_reference_rank(dim, monkeypatch):
    sdata = SymplecticData.standard(dim)
    curves = [rank_one_ladder(sdata, 3, seed=dim), validated_sum_ladder(sdata, 3, seed=dim)]
    curves.append(moduli.sp_action(moduli.sp_generators(sdata)[2], curves[1]))
    got = [moduli.cheap_invariants(c) for c in curves]
    monkeypatch.setattr(moduli, "rank", reference_rank)
    assert got == [moduli.cheap_invariants(c) for c in curves]
    assert any(inv["cube_rank"] > 1 for invs in got for inv in invs)
