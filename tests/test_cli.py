import json
import os
import random
import stat
import time

import pytest

from sympconn.cli import main
from sympconn.generate import conjugated_flat_fixture, rank_one_ladder
from sympconn.fourier import SymplecticData
from sympconn.moduli import sp_action, sp_generators
from sympconn.serialize import dumps, load_path

SD = SymplecticData.standard(4)


def dump_path(value, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(value))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_moved(tmp_path, seed=1, cap=3):
    _, _, moved = conjugated_flat_fixture(seed, dim=4, cap=cap)
    p = tmp_path / "moved.json"
    dump_path(moved, p)
    return p


def test_check_passes_on_conjugated_fixture(tmp_path, capsys):
    p = write_moved(tmp_path)
    code, out, err = run(capsys, "check", str(p))
    assert code == 0
    report = json.loads(out)
    assert report["ricci_type"] is True
    assert all(report["W_vanishes_per_order"])
    assert report["u_first_nonzero_order"] is None
    assert report["b_first_nonzero_order"] is None
    assert "elapsed" in err and "elapsed" not in out


def test_check_reports_are_byte_identical(tmp_path, capsys):
    p = write_moved(tmp_path)
    _, out1, _ = run(capsys, "check", str(p))
    _, out2, _ = run(capsys, "check", str(p))
    assert out1 == out2


def test_check_negative_verdict_exit_1(tmp_path, capsys):
    code, out, _ = run(capsys, "generate", "--kind", "random", "--seed", "3",
                       "--out", str(tmp_path / "rnd.json"))
    assert code == 0
    code, out, _ = run(capsys, "check", str(tmp_path / "rnd.json"))
    assert code == 1
    report = json.loads(out)
    assert report["ricci_type"] is False
    assert report["first_failing_order"] == 1


def test_normalize_round_trip(tmp_path, capsys):
    p = write_moved(tmp_path)
    flat_p = tmp_path / "flat.json"
    wit_p = tmp_path / "wit.json"
    code, out, _ = run(capsys, "normalize", str(p),
                       "--out", str(flat_p), "--witness", str(wit_p))
    assert code == 0
    # act the witness on the input and compare against the embedded flat
    from sympconn.invariant import embed_invariant
    from sympconn.symplecto import act_on_connection

    flat = load_path(flat_p)
    witness = load_path(wit_p)
    moved = load_path(p)
    assert act_on_connection(witness, moved) == embed_invariant(flat)


def test_normalize_refuses_non_ricci(tmp_path, capsys):
    run(capsys, "generate", "--kind", "random", "--seed", "3",
        "--out", str(tmp_path / "rnd.json"))
    code, _, err = run(capsys, "normalize", str(tmp_path / "rnd.json"))
    assert code == 1
    assert "first failing order 1" in err


def test_generate_rank_one_value(tmp_path, capsys):
    out_p = tmp_path / "r1.json"
    code, _, _ = run(capsys, "generate", "--kind", "rank-one", "--dim", "4",
                     "--order", "1", "--vector", "1,0,0,0", "--out", str(out_p))
    assert code == 0
    obj = json.loads(out_p.read_text())
    assert obj["kind"] == "structure_map_curve"
    assert obj["cubes"][1][2][2][2] == "-1"
    assert obj["provenance"]["generator"] == "rank-one"


def test_generate_gradient(tmp_path, capsys):
    out_p = tmp_path / "g.json"
    code, _, _ = run(capsys, "generate", "--kind", "gradient", "--mode", "1,0,0,0",
                     "--trig", "cos", "--order", "2", "--out", str(out_p))
    assert code == 0
    conn = load_path(out_p)
    from sympconn.fourier import FourierScalar

    assert conn.abar[1].get((0, 0, 0)) == FourierScalar.sine(4, (1, 0, 0, 0))


def test_generate_rejects_small_dimension(capsys):
    code, _, err = run(capsys, "generate", "--kind", "random", "--dim", "2")
    assert code == 2
    assert "even integer >= 4" in err


@pytest.mark.parametrize("argv, message", [
    (("--kind", "random", "--omega", "{bad}"), "Expecting"),
    (("--kind", "random", "--omega", "{missing}"), "No such file"),
    (("--kind", "rank-one", "--vector", "1.5,0,0,0"), "bad vector '1.5,0,0,0'"),
])
def test_generate_input_errors_exit_2(tmp_path, capsys, argv, message):
    bad = tmp_path / "bad.json"
    bad.write_text("[[0,1")
    argv = [a.format(bad=bad, missing=tmp_path / "missing.json") for a in argv]
    code, out, err = run(capsys, "generate", *argv)
    assert code == 2 and out == ""
    assert "input error: " in err and message in err
    if "--omega" in argv:
        assert "cannot read omega file" in err


def test_generate_rank_one_zero_vector_exit_2(tmp_path, capsys):
    """A zero vector is malformed input, not a negative verdict: exit 2,
    nothing on stdout and no --out file."""
    out_p = tmp_path / "r1.json"
    code, out, err = run(capsys, "generate", "--kind", "rank-one", "--vector", "0,0,0,0",
                         "--out", str(out_p))
    assert code == 2 and out == ""
    assert err.splitlines()[0] == (
        "input error: bad vector '0,0,0,0': a rank-one cube needs a nonzero vector")
    assert not out_p.exists()
    assert list(tmp_path.iterdir()) == []


def test_check_refuses_other_format_version_exit_2(tmp_path, capsys):
    p = write_moved(tmp_path)
    obj = json.loads(p.read_text())
    obj["version"] = 99
    p.write_text(json.dumps(obj))
    code, _, err = run(capsys, "check", str(p))
    assert code == 2
    assert "unsupported version 99" in err


def test_equiv_verdicts(tmp_path, capsys):
    a = rank_one_ladder(SD, 2, seed=5)
    g = sp_generators(SD)[2]
    b = sp_action(g, a)
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    dump_path(a, pa)
    dump_path(b, pb)
    code, out, _ = run(capsys, "equiv", str(pa), str(pb), "--bound", "1")
    assert code == 0
    assert json.loads(out)["verdict"] == "equivalent"
    code, out, _ = run(capsys, "equiv", str(pa), str(pa), "--bound", "1")
    assert code == 0
    assert json.loads(out)["witness"] == [[1 if i == j else 0 for j in range(4)]
                                          for i in range(4)]


@pytest.mark.parametrize("bound, message", [
    ("-1", "word search bound must be >= 0"),
    ("1000000000", "exceeds the ceiling of 10000 words"),
])
def test_equiv_rejects_bad_bound_exit_2(tmp_path, capsys, bound, message):
    a = rank_one_ladder(SD, 2, seed=5)
    pa = tmp_path / "a.json"
    dump_path(a, pa)
    code, out, err = run(capsys, "equiv", str(pa), str(pa), "--bound", bound)
    assert code == 2
    assert out == ""
    assert message in err


def test_equiv_distinct_exit_1(tmp_path, capsys):
    from fractions import Fraction

    from sympconn.invariant import StructureMapCurve, rank_one_cube, zero_cube

    def e_vec(i):
        return tuple(Fraction(1) if j == i else Fraction(0) for j in range(4))

    one = StructureMapCurve(SD, 1, [zero_cube(4), rank_one_cube(SD, e_vec(0))])
    two_cube = [
        [[rank_one_cube(SD, e_vec(0))[a][b][c] + rank_one_cube(SD, e_vec(1))[a][b][c]
          for c in range(4)] for b in range(4)]
        for a in range(4)
    ]
    two = StructureMapCurve(SD, 1, [zero_cube(4), two_cube])
    pa, pb = tmp_path / "one.json", tmp_path / "two.json"
    dump_path(one, pa)
    dump_path(two, pb)
    code, out, _ = run(capsys, "equiv", str(pa), str(pb), "--bound", "1")
    assert code == 1
    assert json.loads(out)["verdict"] == "distinct"


def test_act_round_trip(tmp_path, capsys):
    p = write_moved(tmp_path, seed=2)
    flat_p, wit_p = tmp_path / "flat.json", tmp_path / "wit.json"
    run(capsys, "normalize", str(p), "--out", str(flat_p), "--witness", str(wit_p))
    acted_p = tmp_path / "acted.json"
    code, _, _ = run(capsys, "act", str(wit_p), str(p), "--out", str(acted_p))
    assert code == 0
    from sympconn.invariant import embed_invariant

    assert load_path(acted_p) == embed_invariant(load_path(flat_p))


def test_act_refuses_a_connection_of_another_omega(tmp_path, capsys):
    """A witness for the standard omega acting on a curve of another omega
    is refused like a cap mismatch, not reported as a broken action."""
    p = write_moved(tmp_path, seed=1)
    wit_p = tmp_path / "wit.json"
    assert run(capsys, "normalize", str(p), "--witness", str(wit_p))[0] == 0
    omega_p, grad_p = tmp_path / "omega.json", tmp_path / "grad.json"
    omega_p.write_text("[[0,0,2,0],[0,0,0,1],[-2,0,0,0],[0,-1,0,0]]")
    code, _, _ = run(capsys, "generate", "--kind", "gradient", "--omega", str(omega_p),
                     "--order", "3", "--out", str(grad_p))
    assert code == 0
    code, out, err = run(capsys, "act", str(wit_p), str(grad_p))
    assert (code, out) == (1, "")
    assert err.startswith(
        "refused: symplectomorphism and connection need matching omega and caps\n")


def test_act_refuses_a_connection_of_another_cap(tmp_path, capsys):
    p = write_moved(tmp_path, seed=1, cap=3)
    wit_p = tmp_path / "wit.json"
    assert run(capsys, "normalize", str(p), "--witness", str(wit_p))[0] == 0
    other = write_moved(tmp_path, seed=1, cap=2)
    code, out, err = run(capsys, "act", str(wit_p), str(other))
    assert (code, out) == (1, "")
    assert err.startswith(
        "refused: symplectomorphism and connection need matching omega and caps\n")


@pytest.mark.parametrize("other", ["cap", "omega"])
def test_act_refuses_a_mismatched_witness_before_reading_its_generators(
        tmp_path, monkeypatch, capsys, other):
    """A cap-20000 identity witness for a cap-3 curve, or a cap-3 one of
    another omega, is refused with the mismatch text from its header, after
    the curve is read: no generator of the witness is built."""
    from sympconn import serialize
    from sympconn.symplecto import SymplectoCurve

    p = write_moved(tmp_path, seed=1, cap=3)
    wit_p = tmp_path / "wit.json"
    if other == "cap":
        dump_path(SymplectoCurve.identity(SD, 20000), wit_p)
    else:
        skew = SymplecticData([[0, 0, 2, 0], [0, 0, 0, 1], [-2, 0, 0, 0], [0, -1, 0, 0]])
        dump_path(SymplectoCurve.identity(skew, 3), wit_p)

    def no_generators(*args):
        raise AssertionError("a witness generator was built")

    monkeypatch.setattr(serialize, "FourierVectorField", no_generators)
    code, out, err = run(capsys, "act", str(wit_p), str(p))
    assert (code, out) == (1, "")
    assert err.startswith(
        "refused: symplectomorphism and connection need matching omega and caps\n")


def test_act_keeps_the_message_of_a_matching_malformed_witness(tmp_path, capsys):
    """A witness whose omega and cap match the curve's but whose generator
    is malformed is refused by the parser, exit 2, as before."""
    p = write_moved(tmp_path, seed=1, cap=3)
    wit_p = tmp_path / "wit.json"
    assert run(capsys, "normalize", str(p), "--witness", str(wit_p))[0] == 0
    obj = json.loads(wit_p.read_text())
    obj["X"][1] = obj["X"][1][:3]
    wit_p.write_text(json.dumps(obj))
    code, out, err = run(capsys, "act", str(wit_p), str(p))
    assert (code, out) == (2, "")
    assert err.startswith("input error: symplecto_curve: generator 2 needs 4 components\n")


def test_corrupted_file_exit_2(tmp_path, capsys):
    p = write_moved(tmp_path)
    obj = json.loads(p.read_text())
    target = next(
        e for order in obj["A"] for e in order["entries"] if len(set(e["idx"])) > 1
    )

    def triple(s):
        num, den = (s.split("/") + ["1"])[:2]
        return f"{3 * int(num)}/{den}"

    for mode in target["modes"]:
        mode["c"]["re"] = triple(mode["c"]["re"])
        mode["c"]["im"] = triple(mode["c"]["im"])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    code, _, err = run(capsys, "check", str(bad))
    assert code == 2
    assert "symmetry" in err and "idx" in err


def test_missing_file_exit_2(capsys):
    code, _, err = run(capsys, "check", "no-such-file.json")
    assert code == 2
    assert "input error: no such file: no-such-file.json" in err


def test_directory_input_exit_2(tmp_path, capsys):
    code, out, err = run(capsys, "check", str(tmp_path))
    assert code == 2 and out == ""
    assert f"input error: cannot read {tmp_path}: " in err
    assert "Traceback" not in err


def test_undecodable_input_exit_2(tmp_path, capsys):
    p = tmp_path / "bom.json"
    p.write_bytes(b"\xff\xfe\x00")
    code, out, err = run(capsys, "check", str(p))
    assert code == 2 and out == ""
    assert f"input error: {p}: not UTF-8 text" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("kind, got", [([], "an array"), ({}, "an object")],
                         ids=["array", "object"])
def test_kind_that_is_not_a_string_exit_2(tmp_path, capsys, kind, got):
    p = write_moved(tmp_path)
    obj = json.loads(p.read_text())
    obj["kind"] = kind
    p.write_text(json.dumps(obj))
    code, out, err = run(capsys, "check", str(p))
    assert code == 2 and out == ""
    assert err.startswith(f"input error: top level: field 'kind' must be a string, got {got}")
    assert "Traceback" not in err


@pytest.mark.parametrize("entries, got", [
    (None, "null"), (7, "an integer"), (True, "a boolean"), (1.5, "a number"),
    ("entries", "a string"),
], ids=["null", "int", "bool", "float", "str"])
def test_entries_that_are_not_an_array_exit_2(tmp_path, capsys, entries, got):
    p = write_moved(tmp_path)
    obj = json.loads(p.read_text())
    obj["A"][1]["entries"] = entries
    p.write_text(json.dumps(obj))
    code, out, err = run(capsys, "check", str(p))
    assert code == 2 and out == ""
    assert err.startswith(
        f"input error: A order 2: field 'entries' must be an array, got {got}")
    assert "Traceback" not in err


def _repeated_mode(entry, zero_first):
    """The entry's first mode written twice, one copy with coefficient 0."""
    mode = entry["modes"][0]
    zero = {"m": mode["m"], "c": {"re": "0", "im": "0"}}
    entry["modes"][:1] = [zero, mode] if zero_first else [mode, zero]
    return f"A order 1 entry 1: duplicate mode {tuple(mode['m'])}"


def _repeated_index(order, zero_first):
    """The order's first entry written twice, one copy with no modes."""
    entry = order["entries"][0]
    zero = {"idx": entry["idx"], "modes": []}
    order["entries"][:1] = [zero, entry] if zero_first else [entry, zero]
    return f"A order 1: duplicate index {entry['idx']}"


@pytest.mark.parametrize("zero_first", [True, False], ids=["zero first", "zero last"])
@pytest.mark.parametrize("repeat", ["mode", "index"])
def test_a_repeat_is_refused_whatever_the_value_of_its_copies(tmp_path, capsys, repeat,
                                                              zero_first):
    """A repeated mode or index is refused whether or not a copy with a zero
    coefficient (or no modes) comes first."""
    p = write_moved(tmp_path)
    obj = json.loads(p.read_text())
    order = obj["A"][0]
    if repeat == "mode":
        message = _repeated_mode(order["entries"][0], zero_first)
    else:
        message = _repeated_index(order, zero_first)
    p.write_text(json.dumps(obj))
    for command in ("check", "normalize"):
        code, out, err = run(capsys, command, str(p))
        assert code == 2 and out == ""
        assert err.splitlines()[0] == f"input error: {message}"


def test_act_with_affine_part_is_deterministic(tmp_path, capsys):
    """`act` with a witness sigma^* o psi_f(t), where sigma(x) = C x + 2 pi d
    has C = S T (two Sp(4, Z) generators) and d = (1/4, 0, 1/2, 0): two runs
    give byte-identical stdout and files, and the output is pinned by its
    sha256."""
    import hashlib
    from fractions import Fraction

    from sympconn.fourier import FourierScalar
    from sympconn.symplecto import SymplectoCurve, compose

    g = sp_generators(SD)
    c = [[sum(g[0][i][k] * g[2][k][j] for k in range(4)) for j in range(4)]
         for i in range(4)]
    sigma = SymplectoCurve.affine(SD, 3, c, (Fraction(1, 4), 0, Fraction(1, 2), 0))
    step = SymplectoCurve.from_hamiltonian(
        SD, 3, FourierScalar.sine(4, (1, 1, 0, 0)), 1, Fraction(2, 3)
    )
    wit_p = tmp_path / "wit.json"
    dump_path(compose(sigma, step), wit_p)
    moved_p = write_moved(tmp_path)
    outs, files = [], []
    for i in range(2):
        code, out, _ = run(capsys, "act", str(wit_p), str(moved_p))
        assert code == 0
        outs.append(out)
        acted_p = tmp_path / f"acted{i}.json"
        code, _, _ = run(capsys, "act", str(wit_p), str(moved_p), "--out", str(acted_p))
        assert code == 0
        files.append(acted_p.read_bytes())
    assert outs[0] == outs[1]
    assert files[0] == files[1] == outs[0].encode()
    assert hashlib.sha256(files[0]).hexdigest() == (
        "ae3430639c1137efc9edc6ab7e1dd8165d2c2ff1e49f101de6c22ded129ea16f"
    )


# sha256 of the stdout and files of `check` and `normalize`, taken before
# Gaussian rationals were stored as int triples: (command, input) -> (exit
# code, stdout, {written file: sha256}).
PINNED_OUTPUTS = {
    ("check", "moved.json"): (
        0, "721f79374a9e55f5e792ad49fe9315d8fed8689fb95d9c2b3648501e25561a44", {}),
    ("normalize", "moved.json"): (
        0, "cc06e3119e1e6016cf9a753dc10c4c4f1e03a994325f0ae3fee2c1ca5e81d2be",
        {"flat.json": "2f0b25376bb80b09067b6b9048167ac382ae02bfb929a7d3668af25a250b790b",
         "wit.json": "396341c16115fd59ae4dfa3f82d03d59c7affcea2c96346753b3ed03f8620d66"}),
    ("check", "random.json"): (
        1, "dfab32439aca0d3bd20db4880d79565a9afe47de32acae1278c2689a4bcf4827", {}),
    ("normalize", "random.json"): (
        1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", {}),
}


# sha256 of the stdout of `generate` on T^6, taken before random scalars
# were drawn as canonical triples: argv -> sha256.
PINNED_DIM6_GENERATE = {
    ("--kind", "random", "--dim", "6", "--order", "3", "--seed", "11"):
        "fbe929bc04d63aab035d33c43101c2bad62a3d89257c7a69bf82e720bcdcb5f2",
    ("--kind", "conjugated", "--dim", "6", "--order", "3", "--seed", "2"):
        "e64f3a1599224c0da68047fb023b4bee2118579779ea7177221ada4c43cf9f0a",
}


@pytest.mark.parametrize("argv", list(PINNED_DIM6_GENERATE), ids=["random", "conjugated"])
def test_dim_6_generate_outputs_are_pinned(capsys, argv):
    """A random and a conjugated cap-3 curve on T^6 are written byte for
    byte as before: the random draw, the rank-one ladder, the composed
    steps and their action all reach the file."""
    import hashlib

    code, out, _ = run(capsys, "generate", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_DIM6_GENERATE[argv]


def test_check_and_normalize_outputs_are_pinned(tmp_path, monkeypatch, capsys):
    """`check` and `normalize` on a conjugated T^4 fixture (seed 1, cap 3) and
    a random cap-3 curve (seed 7) give the same bytes as before the change of
    coefficient representation.  Relative paths keep stdout independent of
    the temporary directory."""
    import hashlib

    def sha(data):
        return hashlib.sha256(data).hexdigest()

    monkeypatch.chdir(tmp_path)
    _, _, moved = conjugated_flat_fixture(1, dim=4, cap=3)
    dump_path(moved, "moved.json")
    run(capsys, "generate", "--kind", "random", "--dim", "4", "--order", "3",
        "--seed", "7", "--out", "random.json")
    assert sha((tmp_path / "moved.json").read_bytes()) == (
        "1f28416d696ccd32628cc2e8dae81c3fbc542d4eba07201483d387854dfd9a19")
    assert sha((tmp_path / "random.json").read_bytes()) == (
        "cea9fd27e5f17e5dd4db69592cfaad7066ae57f61ab635a53a9c6029fa590fb9")
    for (command, name), (want_code, want_out, want_files) in PINNED_OUTPUTS.items():
        extra = ["--out", "flat.json", "--witness", "wit.json"] if command == "normalize" else []
        code, out, _ = run(capsys, command, name, *extra)
        assert code == want_code
        assert sha(out.encode()) == want_out
        written = {f: sha((tmp_path / f).read_bytes())
                   for f in ("flat.json", "wit.json") if (tmp_path / f).exists()}
        assert written == want_files
        for f in written:
            (tmp_path / f).unlink()


def test_oversized_curve_is_refused_exit_2(tmp_path, monkeypatch, capsys):
    """A random T^4 curve at cap 22 has curve_work 212616, just past the
    ceiling of 200000: check, normalize and act refuse it with exit 2 before
    computing any curvature."""
    from sympconn import curvature
    from sympconn.symplecto import SymplectoCurve

    p = tmp_path / "big.json"
    run(capsys, "generate", "--kind", "random", "--dim", "4", "--order", "22",
        "--seed", "7", "--out", str(p))
    conn = load_path(p)
    assert curvature.curve_work(conn) == 212616 > curvature.MAX_CURVE_WORK == 200_000

    def no_curvature(*args):
        raise AssertionError("curvature computed past the ceiling")

    monkeypatch.setattr(curvature, "_curvature_orders", no_curvature)
    wit_p = tmp_path / "wit.json"
    dump_path(SymplectoCurve.identity(SD, 22), wit_p)
    for argv in (["check", str(p)], ["normalize", str(p)], ["act", str(wit_p), str(p)]):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "exceeds the ceiling of 200000 coefficient products" in err


def test_flat_curve_at_a_huge_cap_is_refused_exit_2_within_a_second(tmp_path, monkeypatch,
                                                                    capsys):
    """Every order of the flat T^4 curve is zero, yet the loops over orders
    still run: at cap 20000 its work is 300 per order, past the ceiling, and
    check, normalize and act each exit 2 in under a second, loading
    included, before any curvature is computed.  act is given a cap-1
    witness: the curve is refused as it is loaded, before the caps are
    compared."""
    from sympconn import curvature
    from sympconn.curvature import ConnectionCurve
    from sympconn.symplecto import SymplectoCurve

    cap = 20000
    p, wit_p = tmp_path / "flat.json", tmp_path / "wit.json"
    dump_path(ConnectionCurve.flat(SD, cap), p)
    dump_path(SymplectoCurve.identity(SD, 1), wit_p)

    def no_curvature(*args):
        raise AssertionError("curvature computed past the ceiling")

    monkeypatch.setattr(curvature, "_curvature_orders", no_curvature)
    for argv in (["check", str(p)], ["normalize", str(p)], ["act", str(wit_p), str(p)]):
        start = time.monotonic()
        code, out, err = run(capsys, *argv)
        assert time.monotonic() - start < 1, argv[0]
        assert (code, out) == (2, ""), argv[0]
        assert (f"estimated work {300 * (cap + 1)} exceeds the ceiling of 200000 "
                "coefficient products") in err


def test_curve_work_is_the_sum_over_order_pairs_plus_a_term_per_order():
    """The linear-time pair sum of `curve_work` equals the sum over all
    pairs s + s' <= cap, on curves with zero and nonzero orders."""
    from sympconn.curvature import WORK_PER_ORDER, ConnectionCurve, curve_work
    from sympconn.fourier import TensorField
    from sympconn.generate import random_connection_curve

    for seed in range(6):
        conn = random_connection_curve(seed, dim=4, cap=6)
        abar = [t if random.Random(seed * 7 + k).random() < 0.5 else TensorField.zero(4, 3)
                for k, t in enumerate(conn.abar[1:], 1)]
        for c in (conn, ConnectionCurve(SD, 6, abar, validate=False)):
            nnz = [sum(len(f.coeffs) for f in t.components.values()) for t in c.abar]
            pairs = sum(nnz[s] * nnz[k - s] for k in range(7) for s in range(k + 1))
            assert curve_work(c) == pairs + WORK_PER_ORDER * 7


def test_curve_at_the_ceiling_is_accepted(tmp_path, monkeypatch, capsys):
    """The ceiling is inclusive: a curve whose work equals it is checked."""
    from sympconn import cli, curvature

    p = write_moved(tmp_path)
    work = curvature.curve_work(load_path(p))
    assert work == 1347
    monkeypatch.setattr(cli, "MAX_CURVE_WORK", work)
    assert run(capsys, "check", str(p))[0] == 0
    monkeypatch.setattr(cli, "MAX_CURVE_WORK", work - 1)
    code, _, err = run(capsys, "check", str(p))
    assert code == 2 and f"estimated work {work} exceeds the ceiling of {work - 1}" in err


def write_rank_one_every_order(path, cap):
    """The dim-4 ladder with the rank-one cube on e_1 at every order 1..cap:
    one stored entry per order, so its structure_work is
    cap (cap - 1) / 2 + 300 (cap + 1)."""
    from sympconn.invariant import StructureMapCurve, rank_one_cube, zero_cube

    cube = rank_one_cube(SD, (1, 0, 0, 0))
    dump_path(StructureMapCurve(SD, cap, [zero_cube(4)] + [cube] * cap), path)


def test_structure_map_past_the_ceiling_is_refused_exit_2(tmp_path, monkeypatch, capsys):
    """At cap 1146 the rank-one ladder scores 1000185, just past the ceiling
    of 1000000: check, and equiv with it as either file, exit 2 naming the
    file and the ceiling, before any row of either curve is built."""
    from sympconn import invariant

    big, small = tmp_path / "big.json", tmp_path / "small.json"
    write_rank_one_every_order(big, 1146)
    write_rank_one_every_order(small, 3)
    work = invariant.structure_work(load_path(big))
    assert work == 1000185 > invariant.MAX_STRUCTURE_WORK == 1_000_000

    def no_rows(*args):
        raise AssertionError("rows built past the ceiling")

    monkeypatch.setattr(invariant, "cube_rows", no_rows)
    for argv in (["check", str(big)], ["equiv", str(big), str(small)],
                 ["equiv", str(small), str(big), "--bound", "1"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert (f"{big}: estimated work 1000185 exceeds the ceiling of 1000000 coefficient "
                "products") in err


def test_structure_map_below_the_ceiling_is_checked(tmp_path, capsys):
    """One order less, cap 1145 scores 998740 and is checked: valid."""
    from sympconn import invariant

    p = tmp_path / "ladder.json"
    write_rank_one_every_order(p, 1145)
    assert invariant.structure_work(load_path(p)) == 998740
    code, out, _ = run(capsys, "check", str(p))
    assert code == 0 and json.loads(out)["valid"] is True


def test_structure_map_at_the_ceiling_is_accepted(tmp_path, monkeypatch, capsys):
    """The ceiling is inclusive, for check and for both files of equiv."""
    from sympconn import cli, invariant

    p = tmp_path / "ladder.json"
    write_rank_one_every_order(p, 3)
    work = invariant.structure_work(load_path(p))
    assert work == 3 + 300 * 4
    monkeypatch.setattr(cli, "MAX_STRUCTURE_WORK", work)
    assert run(capsys, "check", str(p))[0] == 0
    assert run(capsys, "equiv", str(p), str(p), "--bound", "1")[0] == 0
    monkeypatch.setattr(cli, "MAX_STRUCTURE_WORK", work - 1)
    for argv in (["check", str(p)], ["equiv", str(p), str(p)]):
        code, _, err = run(capsys, *argv)
        assert code == 2 and f"estimated work {work} exceeds the ceiling of {work - 1}" in err


def test_structure_work_is_the_sum_over_order_pairs_plus_a_term_per_order():
    """The linear-time pair sum of `structure_work` equals the sum over all
    pairs p + q <= cap of the stored entry counts, on ladders with zero and
    nonzero orders."""
    from sympconn.invariant import (
        STRUCTURE_WORK_PER_ORDER,
        StructureMapCurve,
        structure_work,
        zero_cube,
    )

    for seed in range(6):
        rng = random.Random(seed)
        ladder = rank_one_ladder(SD, 6, seed=seed)
        cubes = [c if rng.random() < 0.5 else zero_cube(4) for c in ladder.cubes]
        curve = StructureMapCurve(SD, 6, cubes)
        nnz = [len(entries) for _, entries in curve.orders]
        assert any(nnz) and not all(nnz)
        pairs = sum(nnz[p] * nnz[k - p] for k in range(7) for p in range(k + 1))
        assert structure_work(curve) == pairs + STRUCTURE_WORK_PER_ORDER * 7


def write_cosine_pair(tmp_path, cap, nmodes):
    """psi_f(t) for f a sum of nmodes cosines with modes in [-3, 3]^4 and
    amplitudes 1-5 drawn by Random(1), and the flat T^4 curve (curve_work
    0), both at the cap; returns their paths."""
    from sympconn.curvature import ConnectionCurve
    from sympconn.fourier import FourierScalar
    from sympconn.symplecto import SymplectoCurve

    rng = random.Random(1)
    f = FourierScalar.zero(4)
    for _ in range(nmodes):
        mode = tuple(rng.randint(-3, 3) for _ in range(4))
        f = f + FourierScalar.cosine(4, mode).scale(rng.randint(1, 5))
    psi_p, flat_p = tmp_path / "psi.json", tmp_path / "flat.json"
    dump_path(SymplectoCurve.from_hamiltonian(SD, cap, f, 1), psi_p)
    dump_path(ConnectionCurve.flat(SD, cap), flat_p)
    return psi_p, flat_p


@pytest.mark.parametrize("nmodes", [4, 8])
def test_act_past_the_witness_ceiling_is_refused_exit_2(tmp_path, monkeypatch, capsys, nmodes):
    """At cap 8 the Lie series of psi_f(t) on the flat curve is estimated
    past `MAX_ACT_WORK`: act exits 2 in under a second, before any series is
    built, and writes no file."""
    from sympconn import symplecto

    psi_p, flat_p = write_cosine_pair(tmp_path, 8, nmodes)

    def no_series(*args):
        raise AssertionError("Lie series built past the ceiling")

    monkeypatch.setattr(symplecto, "exp_lie_connection", no_series)
    out_p = tmp_path / "o.json"
    start = time.monotonic()
    code, out, err = run(capsys, "act", str(psi_p), str(flat_p), "--out", str(out_p))
    assert time.monotonic() - start < 1
    assert (code, out) == (2, "")
    assert err.startswith(f"input error: {psi_p}: estimated work ")
    assert ("exceeds the ceiling of 300000 coefficient products "
            "(dim^4 times the mode pairs of the Lie series on the curve)\n") in err
    assert not out_p.exists()


def test_act_below_the_witness_ceiling_keeps_its_bytes(tmp_path, capsys):
    """The cap-4 pair of four cosines scores 280576 and still acts, with
    the bytes it had before the ceiling."""
    import hashlib

    from sympconn.symplecto import MAX_ACT_WORK, act_work

    psi_p, flat_p = write_cosine_pair(tmp_path, 4, 4)
    assert act_work(load_path(psi_p), load_path(flat_p)) == 280576 <= MAX_ACT_WORK
    out_p = tmp_path / "o.json"
    assert run(capsys, "act", str(psi_p), str(flat_p), "--out", str(out_p))[0] == 0
    assert [hashlib.sha256(p.read_bytes()).hexdigest() for p in (psi_p, out_p)] == [
        "6a0b768eaf08ad5f91fc948cf96b90fad935d642fb6ba51ebb1a86ae8f5b7572",
        "b0ffbf0629bda0fad7e6aff412e62b4175f527579fca9b284d7014c2c471ce22",
    ]


def test_witness_at_the_ceiling_is_accepted(tmp_path, monkeypatch, capsys):
    """The witness ceiling is inclusive, as the curve's is."""
    from sympconn import cli
    from sympconn.symplecto import act_work

    psi_p, flat_p = write_cosine_pair(tmp_path, 2, 4)
    work = act_work(load_path(psi_p), load_path(flat_p))
    monkeypatch.setattr(cli, "MAX_ACT_WORK", work)
    assert run(capsys, "act", str(psi_p), str(flat_p))[0] == 0
    monkeypatch.setattr(cli, "MAX_ACT_WORK", work - 1)
    code, _, err = run(capsys, "act", str(psi_p), str(flat_p))
    assert code == 2 and f"estimated work {work} exceeds the ceiling of {work - 1}" in err


def test_huge_json_integer_exit_2(tmp_path, capsys):
    """A number literal past the interpreter's int digit limit is refused as
    invalid JSON, not raised as a ValueError."""
    p = write_moved(tmp_path)
    text = p.read_text().replace('"cap": 3', '"cap": 1' + "0" * 5000, 1)
    assert text != p.read_text()
    p.write_text(text)
    code, _, err = run(capsys, "check", str(p))
    assert code == 2
    assert err.startswith("input error: not valid JSON: Exceeds the limit")
    assert "Traceback" not in err


def test_deeply_nested_json_exit_2(tmp_path, capsys):
    p = tmp_path / "deep.json"
    p.write_text("[" * 100000 + "]" * 100000)
    code, out, err = run(capsys, "check", str(p))
    assert code == 2 and out == ""
    assert err.startswith("input error: not valid JSON: maximum recursion depth exceeded")
    assert "Traceback" not in err


@pytest.mark.parametrize("target, message", [
    ("somedir", "Is a directory"),
    ("missing/a.json", "No such file or directory"),
])
def test_unwritable_out_exit_2_and_leaves_no_temporary_file(tmp_path, capsys, target,
                                                            message):
    (tmp_path / "somedir").mkdir()
    out_p = tmp_path / target
    code, out, err = run(capsys, "generate", "--kind", "random", "--seed", "1",
                         "--out", str(out_p))
    assert code == 2 and out == ""
    assert err.startswith(f"input error: cannot write {out_p}: {message}")
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["somedir"]


@pytest.mark.parametrize("flag, value, message", [
    ("--dim", "1000000", "dimension 1000000 exceeds the ceiling of 16"),
    ("--order", "1000000000", "order 1000000000 exceeds the ceiling of 32"),
])
def test_generate_above_a_ceiling_exit_2(tmp_path, capsys, flag, value, message):
    out_p = tmp_path / "big.json"
    start = time.monotonic()
    code, out, err = run(capsys, "generate", "--kind", "rank-one", flag, value,
                         "--out", str(out_p))
    assert time.monotonic() - start < 0.5
    assert code == 2 and out == ""
    assert err.startswith(f"input error: {message}")
    assert "Traceback" not in err
    assert not out_p.exists()


@pytest.mark.parametrize("kind, order, floor", [
    ("rank-one", "-1", 0),
    ("gradient", "-1", 1),
    ("gradient", "0", 1),
    ("random", "-1", 0),
    ("conjugated", "-1", 2),
    ("conjugated", "0", 2),
    ("conjugated", "1", 2),
])
def test_generate_below_an_order_floor_exit_2(tmp_path, capsys, kind, order, floor):
    """An --order the fixture cannot be built at is a bad flag, named as one."""
    out_p = tmp_path / "small.json"
    code, out, err = run(capsys, "generate", "--kind", kind, "--order", order,
                         "--out", str(out_p))
    assert code == 2 and out == ""
    assert err.startswith(f"input error: order {order} for --kind {kind} must be at least {floor}")
    assert "Traceback" not in err
    assert not out_p.exists()


@pytest.mark.parametrize("kind", ["rank-one", "random"])
def test_generate_at_order_zero_is_accepted(capsys, kind):
    code, out, _ = run(capsys, "generate", "--kind", kind, "--order", "0")
    assert code == 0
    assert json.loads(out)["cap"] == 0


def test_generate_conjugated_at_its_floor_is_accepted(capsys):
    code, out, _ = run(capsys, "generate", "--kind", "conjugated", "--order", "2")
    assert code == 0
    assert json.loads(out)["cap"] == 2


def test_generate_gradient_at_its_floor_is_accepted(capsys):
    code, out, _ = run(capsys, "generate", "--kind", "gradient", "--order", "1")
    assert code == 0
    assert json.loads(out)["cap"] == 1


def test_generate_at_the_ceilings_is_accepted(capsys):
    from sympconn.cli import MAX_GENERATE_DIM, MAX_GENERATE_ORDER

    code, out, _ = run(capsys, "generate", "--kind", "gradient",
                       "--dim", str(MAX_GENERATE_DIM), "--order", str(MAX_GENERATE_ORDER),
                       "--mode", ",".join(["1"] + ["0"] * (MAX_GENERATE_DIM - 1)))
    assert code == 0
    obj = json.loads(out)
    assert (obj["dim"], obj["cap"]) == (MAX_GENERATE_DIM, MAX_GENERATE_ORDER)


@pytest.fixture
def umask_022():
    old = os.umask(0o022)
    try:
        yield
    finally:
        os.umask(old)


def test_written_files_honour_the_umask(tmp_path, capsys, umask_022):
    gen_p = tmp_path / "gen.json"
    code, _, _ = run(capsys, "generate", "--kind", "random", "--seed", "1",
                     "--out", str(gen_p))
    assert code == 0
    wit_p = tmp_path / "wit.json"
    code, _, _ = run(capsys, "normalize", str(write_moved(tmp_path)), "--witness", str(wit_p))
    assert code == 0
    assert stat.S_IMODE(gen_p.stat().st_mode) == 0o644
    assert stat.S_IMODE(wit_p.stat().st_mode) == 0o644


def test_act_with_non_gaussian_phase_exit_2(tmp_path, capsys):
    """A translation by d = (1/3, 0, 0, 0) puts the phase e^(2 pi i m/3) on
    a mode m with m_1 not divisible by 3, which is not a Gaussian rational:
    the witness file is valid, but the model cannot hold its action."""
    from fractions import Fraction

    from sympconn.symplecto import SymplectoCurve

    eye = [[int(i == j) for j in range(4)] for i in range(4)]
    wit_p, curve_p = tmp_path / "wit.json", tmp_path / "curve.json"
    dump_path(SymplectoCurve.affine(SD, 2, eye, (Fraction(1, 3), 0, 0, 0)), wit_p)
    run(capsys, "generate", "--kind", "random", "--seed", "1", "--out", str(curve_p))
    code, out, err = run(capsys, "act", str(wit_p), str(curve_p))
    assert code == 2 and out == ""
    assert err.startswith("input error: phase e^(2 pi i ")
    assert "is not a Gaussian rational" in err


# sha256 of stdout, taken before reports were written by `json_text`:
# (command, inputs) -> (exit code, stdout).  The invalid structure-map
# curve's witness holds its pair as a tuple.
PINNED_REPORTS = {
    ("equiv", "a.json", "b.json", "--bound", "1"): (
        0, "ff1b94e65f4b00f6f72b5fa61ba2abe4712425f69a86ac7983337b98c0c52328"),
    ("equiv", "one.json", "two.json", "--bound", "1"): (
        1, "95fc28ba46291507250493ca38fc5ddc9c38f41f457223556f8d622b16006f1f"),
    ("check", "invalid.json"): (
        1, "0f171c35c49abcaa67c8c535f49e0570b542c18be8b67fbb22c02875b25a5afb"),
}


def test_equiv_and_structure_map_check_reports_are_pinned(tmp_path, monkeypatch, capsys):
    """An `equiv` witness, an `equiv` separating invariant and an invalid
    structure-map curve's witness give the same bytes as before."""
    import hashlib
    from fractions import Fraction

    from sympconn.invariant import StructureMapCurve, rank_one_cube, zero_cube

    def e_vec(i):
        return tuple(Fraction(int(j == i)) for j in range(4))

    def cube_sum(*cubes):
        return [[[sum(c[x][y][z] for c in cubes) for z in range(4)] for y in range(4)]
                for x in range(4)]

    monkeypatch.chdir(tmp_path)
    a = rank_one_ladder(SD, 2, seed=5)
    e1, e2, e3 = (rank_one_cube(SD, e_vec(i)) for i in range(3))
    dump_path(a, "a.json")
    dump_path(sp_action(sp_generators(SD)[0], a), "b.json")
    dump_path(StructureMapCurve(SD, 1, [zero_cube(4), e1]), "one.json")
    dump_path(StructureMapCurve(SD, 1, [zero_cube(4), cube_sum(e1, e2)]), "two.json")
    dump_path(StructureMapCurve(SD, 3, [zero_cube(4), e1, e3, zero_cube(4)]), "invalid.json")
    for argv, (want_code, want_out) in PINNED_REPORTS.items():
        code, out, _ = run(capsys, *argv)
        assert code == want_code
        assert hashlib.sha256(out.encode()).hexdigest() == want_out


def test_pinned_outputs_build_no_curvature_full_view(tmp_path, monkeypatch, capsys):
    """`check` and `normalize` read the stored halves of R, E and W only:
    the pinned outputs and reports keep their bytes with no full view of a
    curvature-type field built."""
    from references import count_full_views

    calls = count_full_views(monkeypatch)
    test_check_and_normalize_outputs_are_pinned(tmp_path, monkeypatch, capsys)
    (tmp_path / "reports").mkdir()
    test_equiv_and_structure_map_check_reports_are_pinned(tmp_path / "reports", monkeypatch,
                                                          capsys)
    assert calls == []


# -- a seeded mutation corpus of structure-map files ----------------------------

HUGE = "1/" + "7" * 400


def _entry(rng, obj):
    """A random (order, a, b, c) of a file's cubes, order >= 1."""
    dim = obj["dim"]
    return (rng.randrange(1, len(obj["cubes"])),) + tuple(rng.randrange(dim) for _ in range(3))


def _set(value, symmetric=False):
    """The mutation that writes value at a random entry, or at all its
    transposes."""
    def mutate(rng, obj):
        k, a, b, c = _entry(rng, obj)
        for i, j, m in ({(a, b, c), (a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)}
                        if symmetric else {(a, b, c)}):
            obj["cubes"][k][i][j][m] = value
    return mutate


def _asymmetric(rng, obj):
    k, a, b, _ = _entry(rng, obj)
    obj["cubes"][k][a][b][(a + 1) % obj["dim"]] = "7"


def _short_row(rng, obj):
    k, a, b, _ = _entry(rng, obj)
    obj["cubes"][k][a][b].pop()


def _row_as_string(rng, obj):
    """A row written as one string of its digits, "0000" for a zero row."""
    k, a, b, _ = _entry(rng, obj)
    obj["cubes"][k][a][b] = "".join(x if len(x) == 1 else "1" for x in obj["cubes"][k][a][b])


def _boolean_entry(rng, obj):
    _set(rng.choice([True, False]))(rng, obj)


# mutation -> (mutate, the exit codes it may give): a file that still holds
# a symmetric ladder gets a verdict, 0 or 1, and any other exits 2
STRUCTURE_MAP_MUTATIONS = {
    "asymmetric entry": (_asymmetric, {2}),
    "1/0": (_set("1/0"), {2}),
    "huge denominator": (_set(HUGE), {0, 1, 2}),
    "huge denominator, symmetric": (_set(HUGE, True), {0, 1}),
    "huge numerator, symmetric": (_set("-" + HUGE[2:], True), {0, 1}),
    "boolean entry": (_boolean_entry, {2}),
    "boolean dim": (lambda rng, obj: obj.update(dim=True), {2}),
    "boolean cap": (lambda rng, obj: obj.update(cap=False), {2}),
    "boolean cube": (lambda rng, obj: obj["cubes"].__setitem__(_entry(rng, obj)[0], True), {2}),
    "short row": (_short_row, {2}),
    "row as a string": (_row_as_string, {2}),
    "plane as a number": (lambda rng, obj: obj["cubes"][1].__setitem__(rng.randrange(4), 0), {2}),
    "extra plane": (lambda rng, obj: obj["cubes"][1].append(obj["cubes"][1][0]), {2}),
    "missing order": (lambda rng, obj: obj["cubes"].pop(rng.randrange(len(obj["cubes"]))), {2}),
    "extra order": (lambda rng, obj: obj["cubes"].append(obj["cubes"][-1]), {2}),
    "cubes as an object": (lambda rng, obj: obj.update(cubes={}), {2}),
    "missing cubes": (lambda rng, obj: obj.pop("cubes"), {2}),
}


@pytest.mark.parametrize("mutation", sorted(STRUCTURE_MAP_MUTATIONS))
def test_mutated_structure_map_files_fail_cleanly(tmp_path, capsys, mutation):
    """Seeded mutations of a valid rank-one file through `check` and `equiv`
    in-process: the expected exit code, no traceback, stdout empty or one
    JSON report, and each command well under a second."""
    valid = tmp_path / "valid.json"
    code, _, _ = run(capsys, "generate", "--kind", "rank-one", "--vector", "1,0,1/3,0",
                     "--out", str(valid))
    assert code == 0
    mutate, codes = STRUCTURE_MAP_MUTATIONS[mutation]
    rng = random.Random(f"structure-map-{mutation}")
    for i in range(4):
        obj = json.loads(valid.read_text())
        mutate(rng, obj)
        bad = tmp_path / f"bad{i}.json"
        bad.write_text(json.dumps(obj))
        for argv in (["check", str(bad)], ["equiv", str(bad), str(valid)],
                     ["equiv", str(valid), str(bad)]):
            start = time.monotonic()
            code, out, err = run(capsys, *argv)
            assert time.monotonic() - start < 1.0, argv
            assert code in codes and "Traceback" not in err, (argv, code, err)
            assert out == "" or isinstance(json.loads(out), dict), (argv, out)


# -- a seeded mutation corpus of connection-curve and symplecto-curve files ------


def _order_entry(rng, obj, distinct=False):
    """A random order of a connection file's A and one of its entries, with
    at least two distinct indices when asked."""
    orders = [t for t in obj["A"] if any(len(set(e["idx"])) > distinct for e in t["entries"])]
    t = rng.choice(orders)
    return t, rng.choice([e for e in t["entries"] if len(set(e["idx"])) > distinct])


def _permutations_of(t, entry):
    return [e for e in t["entries"] if sorted(e["idx"]) == sorted(entry["idx"])]


def _asymmetric_coefficient(rng, obj):
    """One entry's coefficient changed, not its permutations'."""
    _, e = _order_entry(rng, obj, distinct=True)
    rng.choice(e["modes"])["c"]["re"] = "7"


def _non_real_coefficient(rng, obj):
    """The same mode of an entry and all its permutations set to 5i, whose
    conjugate mode does not hold -5i."""
    t, e = _order_entry(rng, obj)
    i = rng.randrange(len(e["modes"]))
    for p in _permutations_of(t, e):
        p["modes"][i]["c"] = {"re": "0", "im": "5"}


def _entry_removed(rng, obj):
    """An entry and all its permutations removed: still a real symmetric curve."""
    t, e = _order_entry(rng, obj)
    for p in _permutations_of(t, e):
        t["entries"].remove(p)


def _entry_update(**fields):
    def mutate(rng, obj):
        _order_entry(rng, obj)[1].update(fields)
    return mutate


def _mode_update(**fields):
    def mutate(rng, obj):
        rng.choice(_order_entry(rng, obj)[1]["modes"]).update(fields)
    return mutate


def _duplicate_entry(rng, obj):
    t, e = _order_entry(rng, obj)
    t["entries"].append(e)


def _duplicate_mode(rng, obj):
    modes = _order_entry(rng, obj)[1]["modes"]
    modes.append(modes[0])


def _order_update(**fields):
    def mutate(rng, obj):
        rng.choice(obj["A"]).update(fields)
    return mutate


# mutation -> (mutate, the exit codes it may give): a file that still holds
# a real symmetric connection curve gets a verdict, 0 or 1, and any other
# exits 2
CONNECTION_MUTATIONS = {
    "asymmetric coefficient": (_asymmetric_coefficient, {2}),
    "non-real coefficient": (_non_real_coefficient, {2}),
    "entry removed with its permutations": (_entry_removed, {0, 1}),
    "index 0": (_entry_update(idx=[0, 1, 1]), {2}),
    "index past dim": (_entry_update(idx=[1, 1, 5]), {2}),
    "index of rank 2": (_entry_update(idx=[1, 1]), {2}),
    "index as a string": (_entry_update(idx="111"), {2}),
    "duplicate entry": (_duplicate_entry, {2}),
    "modes as an object": (_entry_update(modes={}), {2}),
    "short mode": (_mode_update(m=[1, 0, 0]), {2}),
    "huge mode": (_mode_update(m=[10 ** 30, 0, 0, 0]), {2}),
    "duplicate mode": (_duplicate_mode, {2}),
    "1/0 coefficient": (_mode_update(c={"re": "1/0", "im": "0"}), {2}),
    "coefficient as a number": (_mode_update(c=1), {2}),
    "rank 4": (_order_update(rank=4), {2}),
    "no symmetry": (_order_update(symmetry="none"), {2}),
    "missing order": (lambda rng, obj: obj["A"].pop(rng.randrange(len(obj["A"]))), {2}),
    "boolean cap": (lambda rng, obj: obj.update(cap=True), {2}),
    "symmetric omega": (lambda rng, obj: obj["omega"][2].__setitem__(0, "1"), {2}),
    "singular omega": (lambda rng, obj: obj.update(omega=[["0"] * 4] * 4), {2}),
    "symplecto kind": (lambda rng, obj: obj.update(kind="symplecto_curve"), {2}),
}


def _zero_generator_bent(rng, obj):
    """A zero generator made the real field cos(x^2 + x^3) e_1, which is not
    symplectic under the standard omega."""
    k = next(k for k, g in enumerate(obj["X"]) if not any(g))
    obj["X"][k][0] = [{"m": m, "c": {"re": "1/2", "im": "0"}}
                      for m in ([0, -1, -1, 0], [0, 1, 1, 0])]


def _generator_non_real(rng, obj):
    comps = [c for g in obj["X"] for c in g if c]
    rng.choice(rng.choice(comps))["c"]["im"] = "3"


def _cap_lowered(rng, obj):
    obj["X"].pop()
    obj["cap"] -= 1


SYMPLECTO_MUTATIONS = {
    "zero generator bent": (_zero_generator_bent, {2}),
    "non-real generator": (_generator_non_real, {2}),
    "generator missing a component": (lambda rng, obj: rng.choice(obj["X"]).pop(), {2}),
    "missing generator": (lambda rng, obj: obj["X"].pop(), {2}),
    "C not symplectic": (lambda rng, obj: obj["C"][0].__setitem__(0, 2), {2}),
    "C not integral": (lambda rng, obj: obj["C"][0].__setitem__(0, 1.5), {2}),
    "boolean C entry": (lambda rng, obj: obj["C"][1].__setitem__(1, True), {2}),
    "translation by a third": (lambda rng, obj: obj["d"].__setitem__(0, "1/3"), {0, 2}),
    "translation 1/0": (lambda rng, obj: obj["d"].__setitem__(0, "1/0"), {2}),
    "cap lowered": (_cap_lowered, {1}),
    "connection kind": (lambda rng, obj: obj.update(kind="connection_curve"), {2}),
}


@pytest.fixture(scope="module")
def curve_files():
    """A valid Ricci-type connection curve and the symplectomorphism that
    made it (cap 3, its order-3 generator zero), as file texts."""
    _, psi, moved = conjugated_flat_fixture(1, dim=4, cap=3)
    assert psi.gens[3].is_zero() and not psi.gens[1].is_zero()
    return dumps(moved), dumps(psi)


def _assert_fails_cleanly(capsys, argv, codes):
    start = time.monotonic()
    code, out, err = run(capsys, *argv)
    assert time.monotonic() - start < 1.0, argv
    assert code in codes and "Traceback" not in err, (argv, code, err)
    assert out == "" or isinstance(json.loads(out), dict), (argv, out)
    return code


@pytest.mark.parametrize("mutation", sorted(CONNECTION_MUTATIONS))
def test_mutated_connection_files_fail_cleanly(tmp_path, capsys, curve_files, mutation):
    """Seeded mutations of a valid connection file through `check`,
    `normalize` and `act` in-process: an allowed exit code, no traceback,
    stdout empty or one JSON object, and each command well under a second."""
    conn_text, psi_text = curve_files
    psi = tmp_path / "psi.json"
    psi.write_text(psi_text)
    mutate, codes = CONNECTION_MUTATIONS[mutation]
    rng = random.Random(f"connection-{mutation}")
    for i in range(2):
        obj = json.loads(conn_text)
        mutate(rng, obj)
        bad = tmp_path / f"bad{i}.json"
        bad.write_text(json.dumps(obj))
        for argv in (["check", str(bad)], ["normalize", str(bad)], ["act", str(psi), str(bad)]):
            _assert_fails_cleanly(capsys, argv, codes)


@pytest.mark.parametrize("mutation", sorted(SYMPLECTO_MUTATIONS))
def test_mutated_symplecto_files_fail_cleanly(tmp_path, capsys, curve_files, mutation):
    """Seeded mutations of a valid symplectomorphism file, acting on the
    valid connection file; `check` and `normalize` on it exit 2 whatever the
    mutation, as it is not a connection curve."""
    conn_text, psi_text = curve_files
    conn = tmp_path / "conn.json"
    conn.write_text(conn_text)
    mutate, codes = SYMPLECTO_MUTATIONS[mutation]
    rng = random.Random(f"symplecto-{mutation}")
    for i in range(2):
        obj = json.loads(psi_text)
        mutate(rng, obj)
        bad = tmp_path / f"bad{i}.json"
        bad.write_text(json.dumps(obj))
        _assert_fails_cleanly(capsys, ["act", str(bad), str(conn)], codes)
        for argv in (["check", str(bad)], ["normalize", str(bad)]):
            _assert_fails_cleanly(capsys, argv, {2})
