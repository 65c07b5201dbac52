"""Small exact linear algebra over the rationals (dense, hand-rolled).

Matrices are immutable tuples of tuples of Fraction.  Sizes here are tiny
(2n x 2n with 2n <= 8), so Gauss-Jordan with exact pivoting is plenty.
"""

from __future__ import annotations

from .errors import ConfigurationError
from .rationals import Fraction


def matrix(rows):
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def identity(n):
    return tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(n))
        for i in range(n)
    )


def transpose(a):
    return tuple(zip(*a))


def mat_mul(a, b):
    if len(a[0]) != len(b):
        raise ConfigurationError("matrix shape mismatch")
    bt = transpose(b)
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def mat_vec(a, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def mat_neg(a):
    return tuple(tuple(-x for x in row) for row in a)


def is_zero_matrix(a):
    return all(not x for row in a for x in row)


def _reduce(rows, ncols):
    """Gauss-Jordan elimination, in place, on the first ncols columns of a
    list of row lists; returns the rank.  The first rank rows end up with a
    1 in their pivot column and zeros above and below it."""
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = Fraction(1) / rows[r][col]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    return r


def inverse(a):
    """Gauss-Jordan inverse; raises on singular input."""
    n = len(a)
    aug = [list(row) + list(e) for row, e in zip(a, identity(n))]
    if _reduce(aug, n) < n:
        raise ConfigurationError("singular matrix")
    return tuple(tuple(row[n:]) for row in aug)


def rank(rows):
    """Rank of an arbitrary rational matrix (list of row tuples)."""
    rows = [list(r) for r in rows if any(r)]
    return _reduce(rows, len(rows[0]) if rows else 0)
