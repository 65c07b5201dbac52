"""Small exact linear algebra over the rationals (dense, hand-rolled).

Matrices are immutable tuples of tuples of Fraction.  Sizes here are tiny
(2n x 2n with 2n <= 8), so one fraction-free Gauss-Jordan elimination over
Z, on rows cleared of denominators, gives both the inverse and the rank.
"""

from __future__ import annotations

from math import lcm

from .errors import ConfigurationError
from .rationals import Fraction, exact_real


def matrix(rows):
    """The rows as a matrix of Fractions; an entry that `rationals.exact_real`
    refuses is a configuration error."""
    return tuple(tuple(Fraction(exact_real(x, "matrix entry", (i, j))) for j, x in enumerate(row))
                 for i, row in enumerate(rows))


def transpose(a):
    return tuple(zip(*a))


def mat_vec(a, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def mat_neg(a):
    return tuple(tuple(-x for x in row) for row in a)


def _cleared(row):
    """A rational row times the lcm of its denominators, as ints; a row of
    ints as it is."""
    if all(type(x) is int for x in row):
        return list(row)
    d = lcm(*(x.denominator for x in row))
    return [x.numerator * (d // x.denominator) for x in row]


def _reduce(rows, ncols):
    """Fraction-free Gauss-Jordan (Bareiss) elimination, in place, on the first
    ncols columns of int row lists; returns the rank and the last pivot p.
    Each step maps every other row to (p row - f pivot_row) // prev, an exact
    division (the entries stay minors), and leaves p I in the pivot block."""
    r, prev = 0, 1
    for col in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        p = rows[r][col]
        for i in range(len(rows)):
            if i != r:
                f = rows[i][col]
                rows[i] = [(p * x - f * y) // prev for x, y in zip(rows[i], rows[r])]
        prev = p
        r += 1
        if r == len(rows):
            break
    return r, prev


def inverse(a):
    """Gauss-Jordan inverse; raises on singular input."""
    n = len(a)
    aug = [_cleared(list(row) + [int(i == j) for j in range(n)]) for i, row in enumerate(a)]
    r, det = _reduce(aug, n)
    if r < n:
        raise ConfigurationError("singular matrix")
    return tuple(tuple(Fraction(x, det) for x in row[n:]) for row in aug)


def rank(rows):
    """Rank of a matrix of ints or rationals (list of row tuples), its rows
    cleared first."""
    rows = [_cleared(r) for r in rows if any(r)]
    return _reduce(rows, len(rows[0]) if rows else 0)[0]
