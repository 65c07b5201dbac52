"""Each independent check accepts the program's output and rejects a
perturbed copy of it.

    PYTHONPATH=src python -m pytest -q perfbench/test_checks.py
"""

import dataclasses
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402
from sympconn.curvature import bianchi_check, curvature_bundle  # noqa: E402
from sympconn.euclidean import equivalence_Rn  # noqa: E402
from sympconn.fourier import FourierScalar, SymplecticData, TensorField, TensorFieldCurve  # noqa: E402
from sympconn.generate import conjugated_flat_fixture, random_connection_curve  # noqa: E402
from sympconn.invariant import StructureMapCurve, invariant_ricci_type_check  # noqa: E402
from sympconn.invariant import flatness_theorem_check  # noqa: E402
from sympconn.moduli import (  # noqa: E402
    ModuliClassQuery,
    equivalence_semidecide,
    sp_action,
    sp_generators,
    validity_check,
)
from sympconn.normalization import normalize_curve  # noqa: E402
from sympconn.rationals import GR_ONE  # noqa: E402
from sympconn.serialize import dumps  # noqa: E402

SD4 = SymplecticData.standard(4)
OMEGA4 = checks.standard_omega(4)


def bump(curve, k):
    """The curve with one coefficient of its order-k tensor increased by 1."""
    t = curve.orders[k]
    idx = min(t.components)
    f = t.components[idx]
    mode = min(f.coeffs)
    coeffs = dict(f.coeffs)
    coeffs[mode] = coeffs[mode] + GR_ONE
    comps = dict(t.components)
    comps[idx] = FourierScalar(f.dim, coeffs, _validated=True)
    orders = list(curve.orders)
    orders[k] = TensorField(t.dim, t.rank, comps, t.symmetry_tag, _validated=True)
    return TensorFieldCurve(curve.cap, orders)


def first_nonzero_order(curve):
    return next(k for k, t in enumerate(curve.orders) if t.components)


@pytest.fixture(scope="module")
def random_bundle():
    conn = random_connection_curve(3, dim=4, cap=2)
    points = [checks.rational_point(random.Random(i), 4) for i in range(2)]
    return conn, curvature_bundle(conn), points


def test_curvature_check_accepts_the_program(random_bundle):
    conn, bundle, points = random_bundle
    checks.check_curvature_bundle(conn, bundle, points)


@pytest.mark.parametrize("field", ["R", "r", "E", "W"])
def test_curvature_check_rejects_a_perturbed_curve(random_bundle, field):
    conn, bundle, points = random_bundle
    curve = getattr(bundle, field)
    bad = dataclasses.replace(bundle, **{field: bump(curve, first_nonzero_order(curve))})
    with pytest.raises(CheckFailed):
        checks.check_curvature_bundle(conn, bad, points)


def test_flat_and_bianchi_checks():
    _, _, moved = conjugated_flat_fixture(0, dim=4, cap=3)
    bundle = curvature_bundle(moved)
    checks.check_flat_bundle(bundle, 3)
    report = bianchi_check(moved)
    checks.check_bianchi(report, 3)
    curved = random_connection_curve(3, dim=4, cap=2)
    not_flat = curvature_bundle(curved)
    with pytest.raises(CheckFailed):
        checks.check_flat_bundle(dataclasses.replace(bundle, R=not_flat.R), 2)
    with pytest.raises(CheckFailed):
        checks.check_bianchi(dict(report, second=[True, True, False, True]), 3)


@pytest.fixture(scope="module")
def normalized():
    planted, _, moved = conjugated_flat_fixture(1, dim=4, cap=3)
    result = normalize_curve(moved)
    return planted, result, dumps(result.flat_curve), dumps(result.witness)


def test_normalization_check(normalized):
    planted, result, flat_text, witness_text = normalized
    checks.check_normalization(result, planted.cubes, flat_text, witness_text, 3, 4)

    other = [[[list(row) for row in plane] for plane in cube] for cube in planted.cubes]
    other[1][0][0][0] += 1
    with pytest.raises(CheckFailed):
        checks.check_normalization(result, other, flat_text, witness_text, 3, 4)

    flat = json.loads(flat_text)
    flat["cubes"][1][0][0][0] = str(Fraction(flat["cubes"][1][0][0][0]) + 1)
    with pytest.raises(CheckFailed):
        checks.check_normalization(result, planted.cubes, json.dumps(flat), witness_text, 3, 4)

    witness = json.loads(witness_text)
    entry = next(e for order in witness["X"] for comp in order for e in comp)
    entry["c"]["re"] = str(Fraction(entry["c"]["re"]) + 1)
    with pytest.raises(CheckFailed):
        checks.check_normalization(result, planted.cubes, flat_text, json.dumps(witness), 3, 4)

    witness = json.loads(witness_text)
    witness["C"][0][1] = 1
    with pytest.raises(CheckFailed):
        checks.check_normalization(result, planted.cubes, flat_text, json.dumps(witness), 3, 4)


def _ladders():
    rng = random.Random(5)
    return (workloads.rank_one_cubes(rng, SD4, 3), workloads.sum_cubes(rng, SD4, 3),
            workloads.invalid_cubes(rng, SD4, 3))


def test_ladder_verdict_checks():
    one, two, bad = _ladders()
    good_curve = StructureMapCurve(SD4, 3, one)
    bad_curve = StructureMapCurve(SD4, 3, bad)
    checks.check_validity_verdict(validity_check(good_curve), one, OMEGA4, None)
    checks.check_ricci_verdict(invariant_ricci_type_check(good_curve), None)
    checks.check_flatness_report(flatness_theorem_check(good_curve), 3)
    verdict = validity_check(bad_curve)
    checks.check_validity_verdict(verdict, bad, OMEGA4, workloads.INVALID_ORDER)
    checks.check_ricci_verdict(invariant_ricci_type_check(bad_curve), workloads.INVALID_ORDER)

    with pytest.raises(CheckFailed):
        checks.check_validity_verdict((False, verdict[1]), one, OMEGA4, None)
    with pytest.raises(CheckFailed):
        checks.check_validity_verdict(verdict, bad, OMEGA4, 2)
    passing_pair = next((a, b) for a in range(4) for b in range(4)
                        if not any(x for row in checks.product_sum(bad, OMEGA4, 3, a, b)
                                   for x in row))
    with pytest.raises(CheckFailed):
        checks.check_validity_verdict((False, dict(verdict[1], pair=passing_pair)),
                                      bad, OMEGA4, 3)
    with pytest.raises(CheckFailed):
        checks.check_ricci_verdict((False, {"order": 2, "triple": (0, 0, 0)}), 3)
    with pytest.raises(CheckFailed):
        checks.check_flatness_report({"curvature_zero": [True] * 4, "bb_zero": [True] * 3,
                                      "ok": True}, 3)


def test_equivalence_rn_check():
    one, two, _ = _ladders()
    merged = equivalence_Rn(StructureMapCurve(SD4, 3, one), StructureMapCurve(SD4, 3, two))
    checks.check_equivalence_rn(merged, one, two, OMEGA4)
    with pytest.raises(CheckFailed):
        checks.check_equivalence_rn(merged, two, one, OMEGA4)


def test_own_pullback_agrees_with_sp_action():
    one, _, _ = _ladders()
    for g in sp_generators(SD4)[:4]:
        moved = sp_action(g, StructureMapCurve(SD4, 3, one))
        checks.check_cubes_equal(checks.pullback(one, [[Fraction(x) for x in r] for r in g]),
                                 moved.cubes, "pullback")


def test_equivalence_verdict_check():
    one, two, _ = _ladders()
    # A generator that moves the ladder, so the identity is not a witness.
    moved = next(m for m in (checks.pullback(one, [[Fraction(x) for x in r] for r in g])
                             for g in sp_generators(SD4)) if m != one)
    verdict = equivalence_semidecide(ModuliClassQuery(StructureMapCurve(SD4, 3, one),
                                                      StructureMapCurve(SD4, 3, moved), 1))
    checks.check_equivalence_verdict(verdict, "equivalent", one, moved, OMEGA4, 1)
    for witness in (tuple(tuple(int(i == j) for j in range(4)) for i in range(4)),
                    ((2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
                    tuple(tuple(Fraction(x, 2) for x in row) for row in verdict.witness)):
        with pytest.raises(CheckFailed):
            checks.check_equivalence_verdict(dataclasses.replace(verdict, witness=witness),
                                             "equivalent", one, moved, OMEGA4, 1)
    with pytest.raises(CheckFailed):
        checks.check_equivalence_verdict(verdict, "distinct", one, moved, OMEGA4, 1, 1)

    distinct = equivalence_semidecide(ModuliClassQuery(StructureMapCurve(SD4, 3, one),
                                                       StructureMapCurve(SD4, 3, two), 1))
    order = distinct.separating["order"]
    checks.check_equivalence_verdict(distinct, "distinct", one, two, OMEGA4, 1, order)
    with pytest.raises(CheckFailed):
        checks.check_equivalence_verdict(distinct, "distinct", one, two, OMEGA4, 1, order + 1)


def test_self_time_subtracts_children():
    t = tracing.Tracer()
    t.names = ["op.x", "a", "b"]
    for name, start, end, parent in ((0, 0.0, 10.0, -1), (1, 1.0, 5.0, 0), (2, 2.0, 3.0, 1),
                                     (2, 6.0, 8.0, 0)):
        t.span_name.append(name)
        t.span_start.append(start)
        t.span_end.append(end)
        t.span_parent.append(parent)
        t.span_op.append(0)
    calls, total, self_time = t.aggregate(0, 4)
    assert calls["b"] == 2 and total["b"] == 3.0
    assert self_time == {"op.x": 4.0, "a": 3.0, "b": 3.0}


def test_install_wraps_every_binding_and_uninstall_restores():
    import sympconn.curvature as curvature
    import sympconn.normalization as normalization

    original = curvature.curvature_bundle
    t = tracing.Tracer()
    t.install()
    try:
        assert normalization.curvature_bundle is curvature.curvature_bundle is not original
        t.begin_op(0, "probe")
        curvature.curvature_bundle(random_connection_curve(0, dim=4, cap=1))
        t.end_op()
    finally:
        t.uninstall()
    assert normalization.curvature_bundle is original is curvature.curvature_bundle
    names = {t.names[i] for i in t.span_name}
    assert {"op.probe", "curvature.curvature_bundle", "kernel.dict_add"} <= names
