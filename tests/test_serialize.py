import json
from fractions import Fraction

import pytest

from sympconn.errors import InputError
from sympconn.fourier import FourierScalar, SymplecticData
from sympconn.generate import (
    conjugated_flat_fixture,
    hamiltonian_steps,
    rank_one_ladder,
)
from sympconn.normalization import normalize_curve
from sympconn.serialize import dumps, from_json, loads, to_json

SD = SymplecticData.standard(4)


def moved_fixture(seed=1):
    _, _, moved = conjugated_flat_fixture(seed, dim=4, cap=2)
    return moved


def test_connection_round_trip():
    moved = moved_fixture()
    assert loads(dumps(moved)) == moved


def test_structure_map_round_trip():
    curve = rank_one_ladder(SD, 3, seed=2)
    assert loads(dumps(curve)) == curve


def test_symplecto_round_trip_with_affine_part():
    from sympconn.symplecto import SymplectoCurve, compose

    c = [[1, 0, 1, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    d = [Fraction(1, 2), Fraction(0), Fraction(1, 4), Fraction(0)]
    psi = compose(
        SymplectoCurve.affine(SD, 2, c, d),
        hamiltonian_steps(SD, 2, [(FourierScalar.cosine(4, (1, 0, 0, 0)), 1)]),
    )
    back = loads(dumps(psi))
    assert back == psi
    assert back.c_mat == psi.c_mat and back.d == psi.d


def test_serialization_is_byte_deterministic():
    moved = moved_fixture()
    assert dumps(moved) == dumps(loads(dumps(moved)))


def test_golden_rank_one_layout():
    """Entries are 1-based and sorted; for the rank-one ladder on e_1 the
    only entry at order 1 is idx [3, 3, 3] with constant coefficient -1."""
    from sympconn.invariant import StructureMapCurve, embed_invariant, rank_one_cube, zero_cube

    v = tuple(Fraction(1) if i == 0 else Fraction(0) for i in range(4))
    curve = StructureMapCurve(SD, 1, [zero_cube(4), rank_one_cube(SD, v)])
    obj = to_json(embed_invariant(curve))
    assert obj["A"][0]["entries"] == [
        {"idx": [3, 3, 3], "modes": [{"m": [0, 0, 0, 0], "c": {"re": "-1", "im": "0"}}]}
    ]
    cube_obj = to_json(curve)
    assert cube_obj["cubes"][1][2][2][2] == "-1"


def test_normalization_result_serializes():
    result = normalize_curve(moved_fixture())
    obj = json.loads(dumps(result))
    assert obj["kind"] == "normalization_result"
    assert from_json(obj["flat"]) == result.flat_curve
    assert from_json(obj["witness"]) == result.witness


def test_unknown_kind_rejected():
    with pytest.raises(InputError, match="unknown kind"):
        from_json({"kind": "mystery"})


def test_corrupted_symmetry_rejected_with_entry_name():
    obj = to_json(moved_fixture())
    target = None
    for order in obj["A"]:
        for entry in order["entries"]:
            if len(set(entry["idx"])) > 1:
                target = entry
                break
        if target:
            break
    assert target is not None

    def triple(s):
        p, q = (s.split("/") + ["1"])[:2]
        return f"{3 * int(p)}/{q}"

    for mode in target["modes"]:
        mode["c"]["re"] = triple(mode["c"]["re"])
        mode["c"]["im"] = triple(mode["c"]["im"])
    with pytest.raises(InputError, match="symmetry.*violated.*idx"):
        from_json(obj)


def test_broken_reality_rejected():
    obj = to_json(moved_fixture())
    entry = obj["A"][0]["entries"][0]
    entry["modes"][0]["c"] = {"re": "0", "im": "7"}
    with pytest.raises(InputError, match="not real|symmetry"):
        from_json(obj)


def test_bad_rational_string_rejected():
    obj = to_json(rank_one_ladder(SD, 1, seed=0))
    obj["cubes"][1][0][0][0] = "1.5"
    with pytest.raises(InputError):
        from_json(obj)


def test_small_dimension_rejected():
    obj = to_json(rank_one_ladder(SD, 1, seed=0))
    obj["dim"] = 2
    with pytest.raises(InputError, match=">= 4"):
        from_json(obj)


def test_non_symplectic_omega_rejected():
    obj = to_json(rank_one_ladder(SD, 1, seed=0))
    obj["omega"][0][2] = "0"
    with pytest.raises(InputError):
        from_json(obj)


def _constant_entries(values):
    return [{"idx": idx, "modes": [{"m": [0, 0, 0, 0], "c": {"re": re, "im": "0"}}]}
            for idx, re in values]


def test_symmetry_violations_name_the_first_sorted_pair():
    """The exact texts for both declared symmetries: the witness is the
    first violating entry in sorted index order."""
    from sympconn.serialize import tensor_from_json

    cases = [
        ("curvature_type", [([1, 2, 3, 3], "1"), ([2, 1, 3, 3], "-1"),
                            ([1, 2, 3, 4], "1/2"), ([2, 1, 3, 4], "-1/2")],
         "idx [1, 2, 3, 4] disagrees with idx [1, 2, 4, 3]"),
        ("curvature_type", [([2, 1, 3, 3], "-1"), ([1, 2, 3, 3], "-1")],
         "idx [1, 2, 3, 3] disagrees with idx [2, 1, 3, 3]"),
        ("fully_symmetric", [([1, 2, 2], "1"), ([2, 1, 2], "1"), ([2, 2, 1], "2")],
         "idx [1, 2, 2] disagrees with idx [2, 2, 1]"),
    ]
    for tag, values, tail in cases:
        obj = {"rank": len(values[0][0]), "symmetry": tag, "entries": _constant_entries(values)}
        with pytest.raises(InputError) as exc:
            tensor_from_json(obj, 4, "R order 2")
        assert str(exc.value) == f"R order 2: symmetry {tag!r} violated, entry {tail}"


@pytest.mark.parametrize("entries", [[], [([1, 2, 2], "1")]])
def test_curvature_type_of_wrong_rank_is_an_input_error(entries):
    from sympconn.serialize import tensor_from_json

    obj = {"rank": 3, "symmetry": "curvature_type", "entries": _constant_entries(entries)}
    with pytest.raises(InputError) as exc:
        tensor_from_json(obj, 4, "R order 2")
    assert str(exc.value) == "R order 2: symmetry 'curvature_type' needs rank 4, got rank 3"
