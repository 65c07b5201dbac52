import random
from fractions import Fraction

import pytest

from sympconn.errors import ConfigurationError
from sympconn.linalg import identity, inverse, mat_mul, rank


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
