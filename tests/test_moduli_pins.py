"""Byte-identity pins for the Sp(2n, Z) word search.

Each test renders the verdicts of `equivalence_semidecide` as canonical text
and compares its sha256 with a value taken from the `Fraction` word search
that enumerated its words afresh on every query, before the per-omega word
table and the integer matcher replaced it.
"""

import hashlib
import random
from fractions import Fraction

import pytest

from sympconn.fourier import SymplecticData
from sympconn.generate import rank_one_ladder
from sympconn.invariant import StructureMapCurve, rank_one_cube, zero_cube
from sympconn.moduli import ModuliClassQuery, equivalence_semidecide, sp_action, sp_generators

from references import canon, e_vec, validated_sum_ladder


def verdicts_sha(pairs, bounds):
    got = []
    for a, b in pairs:
        for bound in bounds:
            v = equivalence_semidecide(ModuliClassQuery(a, b, bound))
            got.append((v.kind, v.witness, v.separating, v.bound))
    return hashlib.sha256(canon(got).encode()).hexdigest()


def word(gens, rng, length):
    dim = len(gens[0])
    m = tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim))
    for _ in range(length):
        g = rng.choice(gens)
        m = tuple(tuple(sum(g[i][k] * m[k][j] for k in range(dim)) for j in range(dim))
                  for i in range(dim))
    return m


def scaled(curve, c):
    return StructureMapCurve(
        curve.sdata, curve.cap,
        [[[[c * x for x in row] for row in plane] for plane in cube] for cube in curve.cubes],
    )


def planted_pairs(dim):
    """Rank-one and sum ladders, one with denominators, each moved by a
    seeded generator word of every length 0..3."""
    sdata = SymplecticData.standard(dim)
    gens = sp_generators(sdata)
    rng = random.Random(f"moduli-pins-{dim}")
    ladders = [rank_one_ladder(sdata, 2, seed=5), validated_sum_ladder(sdata, 2, seed=7),
               scaled(rank_one_ladder(sdata, 2, seed=3), Fraction(1, 3))]
    return [(a, sp_action(word(gens, rng, length), a)) for a in ladders for length in range(4)]


@pytest.mark.parametrize("dim, pin", [
    (4, "1b67be1fefec546ae69be0e9680e40bcab2488125be914001cde6c400599e6b1"),
    (6, "a4542dde60e4dd7ea097cb766f22bfbfe632eb544e83640bda2c321aef54d58d"),
])
def test_planted_pair_verdict_pins(dim, pin):
    assert verdicts_sha(planted_pairs(dim), range(4)) == pin


def test_scaled_and_cube_rank_verdict_pins():
    sd = SymplecticData.standard(4)
    b = StructureMapCurve(sd, 2, [zero_cube(4), rank_one_cube(sd, e_vec(4, 0)),
                                  rank_one_cube(sd, e_vec(4, 1))])
    one = StructureMapCurve(sd, 1, [zero_cube(4), rank_one_cube(sd, e_vec(4, 0))])
    two = StructureMapCurve(sd, 1, [zero_cube(4), [
        [[x + y for x, y in zip(r0, r1)] for r0, r1 in zip(p0, p1)]
        for p0, p1 in zip(rank_one_cube(sd, e_vec(4, 0)), rank_one_cube(sd, e_vec(4, 1)))]])
    assert [verdicts_sha([(b, scaled(b, 5)), (scaled(b, 5), b)], range(4)),
            verdicts_sha([(one, two), (two, one)], range(4))] == [
        "aa1086f10907971e88740ec22f7212cd934918eb7388f4ec57c25c7064730d4b",
        "d7b816d96b5af555511fe30d49a91f4c3f4e0b44206e92f35942c41cb8f97a95",
    ]
