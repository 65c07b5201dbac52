import json
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from sympconn.errors import InputError
from sympconn.fourier import FourierScalar, SymplecticData
from sympconn.generate import (
    conjugated_flat_fixture,
    hamiltonian_steps,
    rank_one_ladder,
)
from sympconn.normalization import normalize_curve
from sympconn.serialize import dumps, from_json, json_text, loads, to_json

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


# -- the indent-1 emitter ------------------------------------------------------------

json_trees = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=5), children, max_size=4),
    max_leaves=20,
)


@settings(max_examples=60)
@given(json_trees)
def test_json_text_is_json_dumps_indent_1(tree):
    assert json_text(tree) == json.dumps(tree, indent=1) + "\n"


def _curve_trees(seed):
    """to_json trees of every kind from one seed: a random connection curve
    with a provenance block, a rank-one ladder, and a normalization result
    with its flat curve, symplecto witness and log."""
    from sympconn.generate import random_connection_curve

    try:
        conn = random_connection_curve(seed, dim=4 + 2 * (seed % 2), cap=seed % 3)
    except AssertionError:
        # the generator's reality assertion: a sine drawn at the zero mode
        assume(False)
    result = normalize_curve(moved_fixture(seed % 5 + 1))
    trees = [to_json(v) for v in (conn, rank_one_ladder(SD, 1 + seed % 3, seed=seed),
                                  result, result.flat_curve, result.witness)]
    # the generate command appends this block
    trees[0]["provenance"] = {"generator": "random", "seed": seed, "dim": conn.dim,
                              "cap": conn.cap}
    return trees


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(st.integers(0, 10**6))
def test_dumps_is_json_dumps_indent_1_on_every_kind(seed):
    for tree in _curve_trees(seed):
        assert json_text(tree) == json.dumps(tree, indent=1) + "\n"


def test_generate_output_is_json_dumps_indent_1(capsys):
    """The generate command's file, with its provenance block, is written by
    the same emitter."""
    from sympconn.cli import main

    for argv in (["--kind", "random", "--seed", "3", "--order", "2"],
                 ["--kind", "rank-one", "--vector", "1/2,0,0,-3", "--order", "1"]):
        assert main(["generate", *argv]) == 0
        out = capsys.readouterr().out
        tree = json.loads(out)
        assert "provenance" in tree
        assert out == json.dumps(tree, indent=1) + "\n"


@pytest.mark.parametrize("leaf", [1.5, (1, 2), {1: "a"}, Fraction(1, 2)])
def test_json_text_refuses_other_types(leaf):
    with pytest.raises(TypeError):
        json_text({"x": [leaf]})


def test_json_text_writes_bool_as_bool():
    tree = [True, False, 1, 0, None]
    assert json_text(tree) == json.dumps(tree, indent=1) + "\n"


# -- loads: each order checked once, and refusals ----------------------------------------


def test_loads_checks_full_symmetry_once_per_order(monkeypatch):
    from sympconn.fourier import TensorField

    calls = []
    real = TensorField.symmetry_witness

    def counting(self, kind):
        calls.append(kind)
        return real(self, kind)

    monkeypatch.setattr(TensorField, "symmetry_witness", counting)
    for cap in (2, 3, 4):
        _, _, moved = conjugated_flat_fixture(1, dim=4, cap=cap)
        text = dumps(moved)
        calls.clear()
        assert loads(text) == moved
        assert calls.count("fully_symmetric") == cap


def _with(obj, path, value):
    target = obj
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return obj


def _psi_json():
    return to_json(normalize_curve(moved_fixture()).witness)


REFUSALS = [
    (lambda: _with(to_json(moved_fixture()), ["cap"], True),
     "connection_curve: bad cap True"),
    (lambda: _with(to_json(moved_fixture()), ["dim"], True),
     "connection_curve: dim must be an even integer >= 4, got True"),
    (lambda: _with(to_json(rank_one_ladder(SD, 1, seed=0)), ["cap"], "2"),
     "structure_map_curve: bad cap '2'"),
    (lambda: _with(to_json(rank_one_ladder(SD, 2, seed=0)), ["cap"], 2.0),
     "structure_map_curve: bad cap 2.0"),
    (lambda: _with(to_json(rank_one_ladder(SD, 1, seed=0)), ["cap"], -1),
     "structure_map_curve: bad cap -1"),
    (lambda: _with(_psi_json(), ["cap"], False),
     "symplecto_curve: bad cap False"),
    (lambda: _with(_psi_json(), ["dim"], 4.0),
     "symplecto_curve: dim must be an even integer >= 4, got 4.0"),
    (lambda: _with(_psi_json(), ["C", 0, 0], True),
     "symplecto_curve: C must be an integer matrix"),
    (lambda: _with(_psi_json(), ["C", 0], 1),
     "symplecto_curve: C must be an integer matrix"),
    (lambda: _with(to_json(moved_fixture()), ["A", 0, "entries", 0, "idx", 0], True),
     "A order 1 entry 1: bad index [True, 1, 1] (1-based, rank 3)"),
    (lambda: _with(to_json(moved_fixture()), ["A", 0, "entries", 0, "modes", 0, "m", 0], False),
     "A order 1 entry 1 mode 1: bad mode vector"),
    (lambda: _with(to_json(moved_fixture()), ["version"], 99),
     "top level: unsupported version 99 (expected 1)"),
    (lambda: _with(to_json(rank_one_ladder(SD, 1, seed=0)), ["version"], True),
     "top level: unsupported version True (expected 1)"),
    (lambda: _with(_psi_json(), ["version"], "1"),
     "top level: unsupported version '1' (expected 1)"),
    (lambda: {k: v for k, v in to_json(moved_fixture()).items() if k != "version"},
     "top level: missing field 'version'"),
]


@pytest.mark.parametrize("make, message", REFUSALS, ids=range(len(REFUSALS)))
def test_header_and_integer_fields_refuse_wrong_types(make, message):
    with pytest.raises(InputError) as exc:
        from_json(make())
    assert str(exc.value) == message
