import json
import os
import stat
import time

import pytest

from sympconn.cli import main
from sympconn.generate import conjugated_flat_fixture, rank_one_ladder
from sympconn.fourier import SymplecticData
from sympconn.moduli import sp_action, sp_generators
from sympconn.serialize import dump_path, load_path

SD = SymplecticData.standard(4)


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
    """A random T^4 curve at cap 22 has curve_work 205716, just past the
    ceiling of 200000: check, normalize and act refuse it with exit 2 before
    computing any curvature."""
    from sympconn import curvature
    from sympconn.symplecto import SymplectoCurve

    p = tmp_path / "big.json"
    run(capsys, "generate", "--kind", "random", "--dim", "4", "--order", "22",
        "--seed", "7", "--out", str(p))
    conn = load_path(p)
    assert curvature.curve_work(conn) == 205716 > curvature.MAX_CURVE_WORK == 200_000

    def no_curvature(*args):
        raise AssertionError("curvature computed past the ceiling")

    monkeypatch.setattr(curvature, "curvature_curve", no_curvature)
    wit_p = tmp_path / "wit.json"
    dump_path(SymplectoCurve.identity(SD, 22), wit_p)
    for argv in (["check", str(p)], ["normalize", str(p)], ["act", str(wit_p), str(p)]):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "exceeds the ceiling of 200000 coefficient products" in err


def test_curve_at_the_ceiling_is_accepted(tmp_path, monkeypatch, capsys):
    """The ceiling is inclusive: a curve whose work equals it is checked."""
    from sympconn import cli, curvature

    p = write_moved(tmp_path)
    work = curvature.curve_work(load_path(p))
    assert work == 147
    monkeypatch.setattr(cli, "MAX_CURVE_WORK", work)
    assert run(capsys, "check", str(p))[0] == 0
    monkeypatch.setattr(cli, "MAX_CURVE_WORK", work - 1)
    code, _, err = run(capsys, "check", str(p))
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
    ("gradient", "-1", 0),
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
