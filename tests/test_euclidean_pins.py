"""Byte-identity pins for the R^(2n) model.

No CLI command reaches `sympconn.euclidean`, so the pinned CLI outputs do not
cover it.  Each test renders exact results as canonical sorted text and
compares its sha256 with a value taken from the implementation before the
sparse-map and cube algebra were shared with the torus code.
"""

import hashlib
from fractions import Fraction

import pytest

from sympconn.errors import PreconditionError
from sympconn.euclidean import (
    Poly,
    PolyMap,
    PolySymplecto,
    PolyVectorField,
    equivalence_Rn,
    psi_A,
    psi_At,
    require_nilpotent_cube,
    _rows_field,
    stabilizer_check,
)
from sympconn.fourier import SymplecticData
from sympconn.generate import rank_one_ladder, validated_sum_ladder
from sympconn.invariant import StructureMapCurve, cube_rows, integral_cube, rank_one_cube, zero_cube

SD4 = SymplecticData.standard(4)
SD6 = SymplecticData.standard(6)


def canon(x):
    """Canonical text: polynomial terms sorted by exponent, dicts by key."""
    if isinstance(x, Poly):
        return "P" + repr(sorted((e, str(c)) for e, c in x.coeffs.items()))
    if isinstance(x, (PolyVectorField, PolyMap)):
        return type(x).__name__ + canon(list(x.comps))
    if isinstance(x, (list, tuple)):
        return "[" + ",".join(canon(v) for v in x) + "]"
    if isinstance(x, dict):
        return "{" + ",".join(f"{k!r}:{canon(v)}" for k, v in sorted(x.items())) + "}"
    if isinstance(x, Fraction):
        return str(x)
    return repr(x)


def sha(x):
    return hashlib.sha256(canon(x).encode()).hexdigest()


def e_vec(dim, a):
    return tuple(Fraction(int(i == a)) for i in range(dim))


def summed(*cubes):
    dim = len(cubes[0])
    return [[[sum(c[i][j][k] for c in cubes) for k in range(dim)] for j in range(dim)]
            for i in range(dim)]


def test_equivalence_Rn_pins():
    got = [
        sha(equivalence_Rn(rank_one_ladder(SD4, 3, seed=1), validated_sum_ladder(SD4, 3, seed=5))),
        sha(equivalence_Rn(rank_one_ladder(SD4, 2, seed=4), rank_one_ladder(SD4, 2, seed=2))),
        sha(equivalence_Rn(rank_one_ladder(SD6, 2, seed=2), validated_sum_ladder(SD6, 2, seed=3))),
    ]
    assert got == [
        "bac5d77630dfe5720a6bc7861c422855e436efd7fdb43158a6be1f5e3bea03a3",
        "1727f56948b2cc5956c4a3d22e91cf15bdc0e95a1acca8b31f4965d081115ab6",
        "1fec71d1b4dbaa68b1dc1f0fe7fb313f7df950bb4ec977e60492bc41ca34d3a8",
    ]


def test_psi_A_and_psi_At_pins():
    cube6 = validated_sum_ladder(SD6, 2, seed=3).cubes[1]
    got = [
        sha(psi_A(SD4, rank_one_cube(SD4, e_vec(4, 0)))),
        sha(psi_A(SD4, rank_one_ladder(SD4, 2, seed=3).cubes[2])),
        sha(psi_A(SD6, cube6)),
        sha(_rows_field(6, cube_rows(SD6, integral_cube(6, cube6)))),
        sha(psi_At(rank_one_ladder(SD4, 3, seed=0))),
        sha(psi_At(validated_sum_ladder(SD6, 2, seed=1))),
    ]
    assert got == [
        "b5cc7cb94312160c7b7b98b08862f800d1b6174f4bf9abcad4e136f7042de436",
        "0698a2689bdf51a448d4403076cd7e763f2563eb982e71a2facf526ff361cd93",
        "0f63b5f41316b92483c55e02944eb2f091c401de284446217a8e7b6316ca7574",
        "996490d150ff51209c0e20eaa2bf3102787b5f9568ebb83492bb881eb1909f63",
        "a309bb934ddd2ee8256f1acbf98941da3517bd878fa778f66bc9f037d65b82a4",
        "a55e119b4e15bb7f0cf85e835ba5a2994bcf2c3e05d81e60c94160c51073b15f",
    ]


def test_stabilizer_check_pins():
    c = [[1, 0, 1, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    d = [Fraction(1, 2), Fraction(0), Fraction(0), Fraction(0)]
    affine = PolyVectorField([Poly.constant(4, Fraction(3, 2)), Poly.variable(4, 3)]
                             + [Poly.zero(4)] * 2)
    translation = PolyVectorField([Poly.zero(4)] * 3 + [Poly.constant(4, -1)])
    stabilizing = PolySymplecto(SD4, 2, c, d, [affine, translation])
    ident = [[int(i == j) for j in range(4)] for i in range(4)]
    x_a = _rows_field(4, cube_rows(SD4, integral_cube(4, rank_one_cube(SD4, e_vec(4, 1)))))
    moving = PolySymplecto(SD4, 2, ident, [Fraction(0)] * 4, [PolyVectorField.zero(4), x_a])
    got = [sha(stabilizer_check(stabilizing)), sha(stabilizer_check(moving))]
    assert got == [
        "7de2bb626bf9ee00feb3b908485c58afad13d8e375b70131d64cf94c9b54fda1",
        "d3009b8d54e170fcf4b293e9e5ba42573219a873d1c2360c565d1632a382e94f",
    ]


def test_refusal_message_pins():
    """The messages for an invalid ladder, a non-nilpotent cube and a
    non-symmetric cube, pinned as text."""
    invalid = StructureMapCurve(
        SD4, 3, [zero_cube(4), rank_one_cube(SD4, e_vec(4, 0)),
                 rank_one_cube(SD4, e_vec(4, 2)), zero_cube(4)]
    )
    with pytest.raises(PreconditionError) as exc:
        psi_At(invalid)
    assert str(exc.value) == "A^t(X) A^t(Y) != 0 at order 3, pair (0, 2)"
    bad = summed(rank_one_cube(SD4, e_vec(4, 0)), rank_one_cube(SD4, e_vec(4, 2)))
    with pytest.raises(PreconditionError) as exc:
        require_nilpotent_cube(SD4, bad)
    assert str(exc.value) == "A(e_0) A(e_2) != 0: cube is not nilpotent"
    with pytest.raises(PreconditionError) as exc:
        psi_A(SD6, summed(rank_one_cube(SD6, e_vec(6, 1)), rank_one_cube(SD6, e_vec(6, 4))))
    assert str(exc.value) == "A(e_1) A(e_4) != 0: cube is not nilpotent"
    skew = [[[Fraction(0)] * 4 for _ in range(4)] for _ in range(4)]
    skew[0][1][2] = Fraction(1)
    with pytest.raises(PreconditionError) as exc:
        require_nilpotent_cube(SD4, skew)
    assert str(exc.value) == "cube is not fully symmetric"
