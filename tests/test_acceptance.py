"""Acceptance gate: exact (zero-tolerance) checks over seeded corpora, each
with an explicit wall-clock budget."""

import json
import time
from fractions import Fraction

import pytest

from sympconn.curvature import (
    bianchi_check,
    curvature_bundle,
    ricci_from_curvature,
)
from sympconn.errors import InputError, PreconditionError
from sympconn.euclidean import (
    equivalence_Rn,
    psi_A,
    psi_A_connection_check,
    psi_A_symplectic_check,
)
from sympconn.fourier import SymplecticData
from sympconn.generate import (
    conjugated_flat_fixture,
    random_connection_curve,
    rank_one_ladder,
    validated_sum_ladder,
)
from sympconn.invariant import (
    StructureMapCurve,
    embed_invariant,
    flatness_theorem_check,
    invariant_ricci_type_check,
    rank_one_cube,
    zero_cube,
)
from sympconn.moduli import (
    ModuliClassQuery,
    equivalence_semidecide,
    sp_action,
    sp_generators,
    validity_check,
)
from sympconn.normalization import normalize_curve
from sympconn.serialize import dumps, from_json, to_json
from sympconn.symplecto import act_on_connection

SD4 = SymplecticData.standard(4)
SD6 = SymplecticData.standard(6)


class Budget:
    def __init__(self, seconds):
        self.seconds = seconds
        self.start = time.monotonic()

    def check(self):
        elapsed = time.monotonic() - self.start
        assert elapsed <= self.seconds, f"budget exceeded: {elapsed:.1f}s > {self.seconds}s"


RANDOM_CORPUS = [random_connection_curve(seed, dim=4, cap=2) for seed in range(25)]


def test_criterion_1_decomposition_law():
    budget = Budget(60)
    for conn in RANDOM_CORPUS:
        bundle = curvature_bundle(conn)
        for k in range(conn.cap + 1):
            assert bundle.E[k] + bundle.W[k] == bundle.R[k]
        assert ricci_from_curvature(bundle.W, conn.sdata).is_zero()
    budget.check()


def test_criterion_2_bianchi_suite():
    budget = Budget(60)
    for conn in RANDOM_CORPUS:
        report = bianchi_check(conn)
        assert report["ok"], report
    budget.check()


def test_criterion_3_invariant_flatness_theorem():
    budget = Budget(30)
    corpus = []
    for seed in range(5):
        for sd in (SD4, SD6):
            corpus.append(rank_one_ladder(sd, 3, seed=seed))
            corpus.append(validated_sum_ladder(sd, 3, seed=seed))
    assert len(corpus) >= 20
    for curve in corpus:
        ok, witness = validity_check(curve)
        assert ok, witness
        ok, witness = invariant_ricci_type_check(curve)
        assert ok, witness
        flatness_theorem_check(curve)  # asserts R = 0 and B(X)B(Y) = 0
        conn = embed_invariant(curve)
        assert all(t.is_zero() for t in curvature_bundle(conn).R.orders)
    budget.check()


RICCI_FIXTURES = [conjugated_flat_fixture(seed, dim=4, cap=3) for seed in range(10)]


def test_criterion_4_main_theorem_round_trip():
    budget = Budget(300)
    for flat, psi, moved in RICCI_FIXTURES:
        result = normalize_curve(moved)
        flatness_theorem_check(result.flat_curve)
        assert act_on_connection(result.witness, moved) == embed_invariant(result.flat_curve)
        assert all(t.is_zero() for t in curvature_bundle(moved).R.orders)
    budget.check()


def test_criterion_5_order_one_two_vanishing():
    budget = Budget(30)
    for flat, psi, moved in RICCI_FIXTURES:
        bundle = curvature_bundle(moved)
        for k in (1, 2):
            assert bundle.u[k].is_zero()
            assert bundle.b[k].is_zero()
            assert bundle.r[k].is_zero()
            assert bundle.R[k].is_zero()
    budget.check()


def test_criterion_6_euclidean_constructions():
    budget = Budget(30)
    pairs = [
        (rank_one_ladder(SD4, 3, seed=2 * s), validated_sum_ladder(SD4, 3, seed=2 * s + 1))
        for s in range(10)
    ]
    for a, b in pairs:
        cube = a.cubes[1]
        assert psi_A_symplectic_check(SD4, cube)
        assert psi_A_connection_check(SD4, cube)

        def scaled(c):
            return [[[c * x for x in row] for row in plane] for plane in cube]

        u, v = Fraction(1, 2), Fraction(1, 3)
        lhs = psi_A(SD4, scaled(u)).compose(psi_A(SD4, scaled(v)))
        assert lhs.comps == psi_A(SD4, scaled(u + v)).comps
        assert psi_A(SD4, scaled(u)).compose(psi_A(SD4, scaled(-u))).is_identity()
        equivalence_Rn(a, b)  # verified internally; raises on failure
    budget.check()


def test_criterion_7_moduli_plant_and_recover():
    budget = Budget(120)
    gens = sp_generators(SD4)
    recovered = 0
    for s in range(10):
        a = rank_one_ladder(SD4, 2, seed=100 + s)
        g1, g2 = gens[s % len(gens)], gens[(3 * s + 1) % len(gens)]
        planted = tuple(
            tuple(sum(g1[i][k] * g2[k][j] for k in range(4)) for j in range(4))
            for i in range(4)
        )
        verdict = equivalence_semidecide(ModuliClassQuery(a, sp_action(planted, a), 2))
        assert verdict.kind == "equivalent", verdict
        assert sp_action(verdict.witness, a) == sp_action(planted, a)
        recovered += 1
    assert recovered == 10

    def e_vec(i):
        return tuple(Fraction(1) if j == i else Fraction(0) for j in range(4))

    one = StructureMapCurve(SD4, 1, [zero_cube(4), rank_one_cube(SD4, e_vec(0))])
    two_cube = [
        [[rank_one_cube(SD4, e_vec(0))[a][b][c] + rank_one_cube(SD4, e_vec(1))[a][b][c]
          for c in range(4)] for b in range(4)]
        for a in range(4)
    ]
    two = StructureMapCurve(SD4, 1, [zero_cube(4), two_cube])
    verdict = equivalence_semidecide(ModuliClassQuery(one, two, 2))
    assert verdict.kind == "distinct"
    budget.check()


def test_criterion_8_negative_controls(tmp_path):
    budget = Budget(10)
    # non-Ricci-type curve refused with the correct first failing order
    conn = random_connection_curve(3, dim=4, cap=2)
    w = curvature_bundle(conn).W
    assert next(k for k, t in enumerate(w.orders) if not t.is_zero()) == 1
    with pytest.raises(PreconditionError, match="first failing order 1"):
        normalize_curve(conn)

    # corrupted-symmetry file rejected at parse, naming the asymmetric entry
    _, _, moved = RICCI_FIXTURES[0]
    obj = to_json(moved)
    target = next(
        e for o in obj["A"] for e in o["entries"] if len(set(e["idx"])) > 1
    )

    def triple(s):
        num, den = (s.split("/") + ["1"])[:2]
        return f"{3 * int(num)}/{den}"

    for mode in target["modes"]:
        mode["c"]["re"] = triple(mode["c"]["re"])
        mode["c"]["im"] = triple(mode["c"]["im"])
    with pytest.raises(InputError, match="symmetry.*violated.*idx"):
        from_json(obj)

    # exit-code contract
    from sympconn.cli import main

    good = tmp_path / "good.json"
    good.write_text(dumps(moved))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    rnd = tmp_path / "rnd.json"
    rnd.write_text(dumps(conn))
    assert main(["check", str(good)]) == 0
    assert main(["check", str(rnd)]) == 1
    assert main(["check", str(bad)]) == 2
    assert main(["normalize", str(rnd)]) == 1
    assert main(["check", str(tmp_path / "missing.json")]) == 2
    budget.check()
