import json
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from sympconn import serialize
from sympconn.cli import main
from sympconn.curvature import ConnectionCurve
from sympconn.errors import InputError
from sympconn.fourier import FourierScalar, SymplecticData, TensorField
from sympconn.generate import (
    conjugated_flat_fixture,
    gradient_curve,
    hamiltonian_steps,
    random_connection_curve,
    rank_one_ladder,
)
from sympconn.invariant import (
    StructureMapCurve, embed_invariant, integral_form, rank_one_cube, rank_one_entries, zero_cube,
)
from sympconn.normalization import normalize_curve
from sympconn.serialize import (
    dumps, from_json, json_text, loads, omega_from_json, scalar_to_json, tensor_from_json, to_json,
)
from sympconn.symplecto import SymplectoCurve, compose

from references import validated_sum_ladder

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


@pytest.mark.parametrize("scale", [1, Fraction(-5, 6)])
def test_sparse_structure_map_parse_round_trips_byte_identically(scale):
    """A dim-8 cap-3 sum ladder, nearly all of whose 4 * 512 entries are
    "0", reads back to the same stored orders and writes the same bytes."""
    ladder = validated_sum_ladder(SymplecticData.standard(8), 3, seed=4)
    ladder = StructureMapCurve(ladder.sdata, 3, [[[[scale * x for x in row] for row in plane]
                                                  for plane in cube] for cube in ladder.cubes])
    text = dumps(ladder)
    back = loads(text)
    assert back.orders == ladder.orders and any(entries for _, entries in back.orders)
    assert dumps(back) == text


def test_symplecto_round_trip_with_affine_part():
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
    v = tuple(Fraction(1) if i == 0 else Fraction(0) for i in range(4))
    curve = StructureMapCurve(SD, 1, [zero_cube(4), rank_one_cube(SD, v)])
    obj = to_json(embed_invariant(curve))
    assert obj["A"][0]["entries"] == [
        {"idx": [3, 3, 3], "modes": [{"m": [0, 0, 0, 0], "c": {"re": "-1", "im": "0"}}]}
    ]
    cube_obj = to_json(curve)
    assert cube_obj["cubes"][1][2][2][2] == "-1"


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


def test_reality_is_read_on_sorted_indices_after_the_symmetry_check():
    """A fully symmetric field is tested for reality on its sorted indices
    only; the texts of both refusals are unchanged."""
    def entries(values):
        return [{"idx": idx, "modes": [{"m": [0, 0, 0, 0], "c": {"re": "1", "im": im}}]}
                for idx, im in values]

    cases = [
        # the non-real entry sits at an unsorted index and differs from its partner
        ([([1, 1, 2], "0"), ([1, 2, 1], "0"), ([2, 1, 1], "1")],
         "symmetry 'fully_symmetric' violated, entry idx [1, 1, 2] disagrees with idx [2, 1, 1]"),
        ([([1, 2, 1], "1"), ([1, 1, 2], "1"), ([2, 1, 1], "1")], "field is not real"),
    ]
    for values, tail in cases:
        obj = {"rank": 3, "symmetry": "fully_symmetric", "entries": entries(values)}
        for _ in range(2):
            with pytest.raises(InputError) as exc:
                tensor_from_json(obj, 4, "A order 1")
            assert str(exc.value) == f"A order 1: {tail}"


@pytest.mark.parametrize("entries", [[], [([1, 2, 2], "1")]])
def test_curvature_type_of_wrong_rank_is_an_input_error(entries):
    obj = {"rank": 3, "symmetry": "curvature_type", "entries": _constant_entries(entries)}
    with pytest.raises(InputError) as exc:
        tensor_from_json(obj, 4, "R order 2")
    assert str(exc.value) == "R order 2: symmetry 'curvature_type' needs rank 4, got rank 3"


# -- the indent-1 emitter ------------------------------------------------------------

json_trees = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=5), children, max_size=4),
    max_leaves=20,
)


@settings(max_examples=60)
@given(json_trees)
def test_json_text_is_json_dumps_indent_1(tree):
    assert json_text(tree) == json.dumps(tree, indent=1) + "\n"


def _curve_trees(seed):
    """to_json trees of every kind from one seed: a random connection curve
    with a provenance block, a rank-one ladder, and the flat curve and
    symplecto witness of a normalization."""
    try:
        conn = random_connection_curve(seed, dim=4 + 2 * (seed % 2), cap=seed % 3)
    except AssertionError:
        # the generator's reality assertion: a sine drawn at the zero mode
        assume(False)
    result = normalize_curve(moved_fixture(seed % 5 + 1))
    trees = [to_json(v) for v in (conn, rank_one_ladder(SD, 1 + seed % 3, seed=seed),
                                  result.flat_curve, result.witness)]
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
    for argv in (["--kind", "random", "--seed", "3", "--order", "2"],
                 ["--kind", "rank-one", "--vector", "1/2,0,0,-3", "--order", "1"]):
        assert main(["generate", *argv]) == 0
        out = capsys.readouterr().out
        tree = json.loads(out)
        assert "provenance" in tree
        assert out == json.dumps(tree, indent=1) + "\n"


@pytest.mark.parametrize("leaf", [1.5, {1, 2}, {1: "a"}, Fraction(1, 2)])
def test_json_text_refuses_other_types(leaf):
    with pytest.raises(TypeError):
        json_text({"x": [leaf]})


def test_json_text_writes_bool_as_bool():
    tree = [True, False, 1, 0, None]
    assert json_text(tree) == json.dumps(tree, indent=1) + "\n"


# -- loads: each order checked once, and refusals ----------------------------------------


def test_loads_checks_full_symmetry_once_per_order(monkeypatch):
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


# -- the direct mode-list writer ---------------------------------------------------------


def _copied_per_key(conn):
    """The curve with a distinct but equal scalar object at every key."""
    return ConnectionCurve(conn.sdata, conn.cap, [
        TensorField(t.dim, 3, {k: FourierScalar(f.dim, dict(f.coeffs), _validated=True)
                               for k, f in t.components.items()}, "fully_symmetric")
        for t in conn.abar])


def _writer_values():
    values = []
    for dim in (4, 6):
        sd = SymplecticData.standard(dim)
        random_curve = random_connection_curve(3, dim=dim, cap=3)
        _, psi, moved = conjugated_flat_fixture(2, dim=dim, cap=3)
        cosine = FourierScalar.cosine(dim, (1, 0, 1) + (0,) * (dim - 3), Fraction(2, 3))
        sine = FourierScalar.sine(dim, (0, 2) + (0,) * (dim - 2))
        values += [random_curve, _copied_per_key(random_curve), moved, _copied_per_key(moved),
                   psi, gradient_curve(sd, 2, cosine), gradient_curve(sd, 3, sine, order=2),
                   validated_sum_ladder(sd, 2, seed=dim)]
    result = normalize_curve(moved_fixture(3))
    return values + [result.witness, result.flat_curve, rank_one_ladder(SD, 3, seed=5)]


def test_dumps_is_json_dumps_of_to_json_on_every_kind_and_dim():
    """The mode lists written straight from the scalars read as the plain
    tree would: random, conjugated and gradient curves at dims 4 and 6, the
    same curves with a distinct equal scalar at every key, symplecto
    witnesses and structure-map curves."""
    for value in _writer_values():
        assert dumps(value) == json.dumps(to_json(value), indent=1) + "\n", value


def test_a_scalar_leaf_is_written_at_each_depth_it_sits():
    """One scalar object at three depths of one tree, and the zero scalar,
    are each written as their own mode list."""
    f = (FourierScalar.cosine(4, (1, -2, 0, 1), Fraction(-3, 4))
         + FourierScalar.sine(4, (0, 0, 1, 0), Fraction(5, 2)))
    zero = FourierScalar.zero(4)
    tree = [f, [f, zero], {"a": f, "b": [[f]]}, f]
    plain = [scalar_to_json(f), [scalar_to_json(f), []],
             {"a": scalar_to_json(f), "b": [[scalar_to_json(f)]]}, scalar_to_json(f)]
    assert json_text(tree) == json.dumps(plain, indent=1) + "\n"


# -- one parse per index orbit -------------------------------------------------------------


def _orbit_entries(first, permuted):
    """The entries [1, 1, 2], [1, 2, 1], [2, 1, 1] of a rank-3 order: the first
    with the mode list `first`, the other two with `permuted`."""
    return {"rank": 3, "symmetry": "fully_symmetric",
            "entries": [{"idx": [1, 1, 2], "modes": first},
                        {"idx": [1, 2, 1], "modes": permuted},
                        {"idx": [2, 1, 1], "modes": permuted}]}


def _cosine_modes(m0, re="1/2"):
    return [{"m": [m0, 0, 0, 0], "c": {"re": re, "im": "0"}},
            {"m": [-1, 0, 0, 0], "c": {"re": re, "im": "0"}}]


def _constant_modes(re, im="0"):
    return [{"m": [0, 0, 0, 0], "c": {"re": re, "im": im}}]


@pytest.mark.parametrize("first, permuted, message", [
    (_cosine_modes(1), _cosine_modes(True), "A order 1 entry 2 mode 1: bad mode vector"),
    (_cosine_modes(1), _cosine_modes(1.0), "A order 1 entry 2 mode 1: bad mode vector"),
    (_constant_modes(1), _constant_modes(True),
     "A order 1 entry 2 mode 1: bad rational literal 'True'"),
    (_constant_modes(1), _constant_modes(1.0),
     "A order 1 entry 2 mode 1: bad rational literal '1.0'"),
    (_constant_modes(1, 0), _constant_modes(1, False),
     "A order 1 entry 2 mode 1: bad rational literal 'False'"),
], ids=["true mode", "1.0 mode", "true re", "1.0 re", "false im"])
def test_an_equal_entry_with_a_bool_or_float_leaf_is_parsed_and_refused(first, permuted, message):
    """Python's == equates True, 1.0 and 1: a permuted entry == to the first
    of its orbit is still refused with the parser's message when it holds a
    bool or a float."""
    assert permuted == first
    with pytest.raises(InputError) as exc:
        tensor_from_json(_orbit_entries(first, permuted), 4, "A order 1")
    assert str(exc.value) == message


def test_an_equal_value_written_differently_loads_to_an_equal_field():
    def load(first, permuted):
        return tensor_from_json(_orbit_entries(first, permuted), 4, "A order 1",
                                expect_rank=3, expect_symmetry="fully_symmetric")

    for first, permuted in ((_cosine_modes(1), _cosine_modes(1, "2/4")),
                            (_cosine_modes(1, "2/4"), _cosine_modes(1)),
                            (_constant_modes("1", 0), _constant_modes(" 1", "0/3"))):
        t = load(first, permuted)
        assert not t.is_zero() and t == load(first, first) == load(permuted, permuted)


@pytest.mark.parametrize("make", [
    lambda: moved_fixture(4),
    lambda: conjugated_flat_fixture(5, dim=6, cap=3)[2],
    lambda: random_connection_curve(7, dim=4, cap=3),
], ids=["conjugated T^4", "conjugated T^6", "random T^4"])
def test_loads_parses_one_mode_list_per_index_orbit(monkeypatch, make):
    """A generated file is parsed once per orbit (sorted index) of each
    order: the permuted entries share the scalar of the first one read."""
    conn = make()
    text = dumps(conn)
    orbits = sum(len({tuple(sorted(e["idx"])) for e in order["entries"]})
                 for order in json.loads(text)["A"])
    assert orbits < sum(len(order["entries"]) for order in json.loads(text)["A"])
    calls = []
    real = serialize.scalar_from_json

    def counting(obj, dim, context):
        calls.append(context)
        return real(obj, dim, context)

    monkeypatch.setattr(serialize, "scalar_from_json", counting)
    back = loads(text)
    assert len(calls) == orbits
    assert back == conn and dumps(back) == text
    for t in back.abar:
        for idx, f in t.components.items():
            assert f is t.components[tuple(sorted(idx))]


# -- omega, parsed once per distinct text --------------------------------------------------


def test_omega_is_built_once_per_text_and_refused_on_every_call():
    texts = [["0", "0", "1", "0"], ["0", "0", "0", "1"], ["-1", "0", "0", "0"],
             ["0", "-1", "0", "0"]]
    sd = omega_from_json(texts, 4)
    assert sd == SD and omega_from_json([list(row) for row in texts], 4) is sd
    # equal under == to the ints, but not a rational literal: refused each time
    bools = [["0", "0", True, "0"]] + texts[1:]
    singular = [["0"] * 4] * 4
    for _ in range(3):
        with pytest.raises(InputError) as exc:
            omega_from_json(bools, 4)
        assert str(exc.value) == "omega[1]: bad rational literal 'True'"
        with pytest.raises(InputError, match="^omega: singular matrix"):
            omega_from_json(singular, 4)


@pytest.mark.parametrize("dim", [4, 6, 8])
def test_cube_leaves_are_written_as_json_dumps_of_the_dense_arrays(dim):
    """Structure-map curves whose cubes `dumps` writes as leaves read as the
    dense arrays of `to_json` would: zero orders, integral and non-integral
    orders with mixed signs and denominators, a nonzero order 0, rank-one
    and sum ladders, and the flat curve and witness of a normalization,
    with a Hamiltonian step beside them."""
    sd = SymplecticData.standard(dim)
    v = (1, Fraction(1, 2), 0, Fraction(-2, 3)) + (0,) * (dim - 5) + (3,)
    mixed = {key: x * Fraction(5, 7) for key, x in rank_one_entries(sd, v).items()}
    integral = {key: 2 * x for key, x in rank_one_entries(sd, (1,) + (0,) * (dim - 1)).items()}
    both = dict(integral)
    for key, x in mixed.items():
        both[key] = both.get(key, 0) + x
    orders = [integral_form(o) for o in ({}, mixed, {}, integral, both)]
    curves = [StructureMapCurve.from_orders(sd, 4, orders),
              StructureMapCurve.from_orders(sd, 4, [integral_form(mixed)] + orders[1:]),
              StructureMapCurve.from_orders(sd, 0, [(1, {})]),
              rank_one_ladder(sd, 3, seed=dim), validated_sum_ladder(sd, 3, seed=dim)]
    assert any(den > 1 for den, _ in curves[0].orders)
    _, _, moved = conjugated_flat_fixture(dim, dim=dim, cap=2)
    step = SymplectoCurve.from_hamiltonian(
        sd, 4, FourierScalar.cosine(dim, (1,) + (0,) * (dim - 1)), 2, Fraction(1, 3))
    result = normalize_curve(moved)
    values = curves + [result.flat_curve, result.witness, step]
    for value in values:
        assert dumps(value) == json.dumps(to_json(value), indent=1) + "\n", value
