"""The three workloads: their inputs, their operations and the checks.

Each workload turns ``--seed`` into a fixed list of operations.  A run
repeats that list in whole rounds, so every round does the same work and
the same operations fail.  An operation has three parts:

* ``prepare`` (untimed) makes fresh input objects, so that per-object caches
  (``ConnectionCurve.mixed``, ``StructureMapCurve.matrices``) never carry
  work over from an earlier round;
* ``call`` (timed) runs the program's calls and returns their outputs;
* ``check`` (untimed) verifies the outputs with `checks` and returns the
  bytes that go into the run digest.

Program functions are reached through their modules (``curvature.x``), so
the wrappers `tracing.Tracer` installs are the ones called.
"""

from __future__ import annotations

import json
import random
import traceback
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import checks

from sympconn import curvature, errors, euclidean, generate, invariant, moduli
from sympconn import normalization, serialize
from sympconn.fourier import SymplecticData


@dataclass
class Op:
    label: str
    prepare: Callable[[], Any]
    call: Callable[[Any], Any]
    check: Callable[[Any, Any], tuple]  # -> (digest bytes, exact outputs)
    known_fault: Callable[[BaseException], bool] | None = None


def build(workload, seed):
    """The operations of one workload for one seed; this is the set-up."""
    return {"check": _check_ops, "normalize": _normalize_ops, "ladders": _ladder_ops}[workload](seed)


# -- check ----------------------------------------------------------------------------

# Random curves come from a fixed contiguous seed range that holds seed 65:
# `generate.random_symmetric_field` can draw the zero Fourier mode there,
# where `FourierScalar.sine` builds a non-real constant and the generator's
# reality assertion fires.  Those operations fail at every cap and on every
# workload seed, so the failed share of a run does not depend on --seed.
CHECK_CAP2_SEEDS = range(56, 72)
CHECK_CAP3_SEEDS = range(60, 68)
CHECK_CONJUGATED = 4
CHECK_POINTS = 1


def zero_mode_fault(exc):
    """The generator's reality assertion, the fault the range keeps in view."""
    frames = [f.name for f in traceback.extract_tb(exc.__traceback__)]
    return isinstance(exc, AssertionError) and "random_symmetric_field" in frames


def _tensor_bytes(curve):
    return json.dumps([serialize.tensor_to_json(t) for t in curve.orders], sort_keys=True)


def _bundle_bytes(text, bundle, bianchi):
    parts = [text] + [_tensor_bytes(getattr(bundle, name)) for name in ("R", "r", "E", "W")]
    if bundle.u is not None:
        parts += [_tensor_bytes(bundle.u), _tensor_bytes(bundle.b)]
    parts.append(json.dumps(bianchi, sort_keys=True))
    return "\n".join(parts).encode()


def _same_coefficients(a, b):
    """Coefficient-by-coefficient equality of two curves' difference tensors."""
    def flat(conn):
        return [
            {idx: {m: (c.re, c.im) for m, c in f.coeffs.items()} for idx, f in t.components.items()}
            for t in conn.abar
        ]
    return a.cap == b.cap and flat(a) == flat(b)


def _check_op(label, make, points, flat):
    def call(_):
        conn = make()
        text = serialize.dumps(conn)
        loaded = serialize.loads(text)
        return conn, text, loaded, curvature.curvature_bundle(loaded), curvature.bianchi_check(loaded)

    def check(_, out):
        conn, text, loaded, bundle, bianchi = out
        checks.require(_same_coefficients(conn, loaded), "loads(dumps(curve)) changed the curve")
        checks.check_curvature_bundle(loaded, bundle, points)
        checks.check_bianchi(bianchi, loaded.cap)
        if flat:
            checks.check_flat_bundle(bundle, loaded.cap)
        return _bundle_bytes(text, bundle, bianchi), bundle

    return Op(label, lambda: None, call, check, None if flat else zero_mode_fault)


def _check_ops(seed):
    rng = random.Random(f"check-{seed}")
    points = [checks.rational_point(rng, 4) for _ in range(CHECK_POINTS)]
    ops = []
    for cap, seeds in ((2, CHECK_CAP2_SEEDS), (3, CHECK_CAP3_SEEDS)):
        for s in seeds:
            ops.append(_check_op(
                f"random.cap{cap}.seed{s}",
                lambda s=s, cap=cap: generate.random_connection_curve(s, dim=4, cap=cap),
                points, flat=False,
            ))
    for i in range(CHECK_CONJUGATED):
        fixture_seed = rng.randrange(2**30)
        _, _, moved = generate.conjugated_flat_fixture(fixture_seed, dim=4, cap=3)
        ops.append(_check_op(f"conjugated.{i}", lambda moved=moved: moved, points, flat=True))
    return ops


# -- normalize ------------------------------------------------------------------------

# (dim, cap, how many) of conjugated flat fixtures per round.  The T^4 cap-4
# fixtures are the middle of the cost range and the largest group, so the
# median operation is the median of several of them.
NORMALIZE_FIXTURES = ((4, 3, 2), (4, 4, 7), (6, 3, 2))


def _fresh_connection(conn):
    return curvature.ConnectionCurve(conn.sdata, conn.cap, conn.abar, validate=False)


def _normalize_op(label, planted, moved):
    def call(conn):
        result = normalization.normalize_curve(conn)
        return result, serialize.dumps(result.flat_curve), serialize.dumps(result.witness)

    def check(conn, out):
        result, flat_text, witness_text = out
        checks.check_normalization(result, planted.cubes, flat_text, witness_text,
                                   conn.cap, conn.dim)
        return (flat_text + witness_text).encode(), result

    return Op(label, lambda: _fresh_connection(moved), call, check)


def _normalize_ops(seed):
    rng = random.Random(f"normalize-{seed}")
    ops = []
    for dim, cap, count in NORMALIZE_FIXTURES:
        for i in range(count):
            planted, _, moved = generate.conjugated_flat_fixture(
                rng.randrange(2**30), dim=dim, cap=cap)
            ops.append(_normalize_op(f"dim{dim}.cap{cap}.{i}", planted, moved))
    return ops


# -- ladders --------------------------------------------------------------------------

LADDER_CAP = 3
# The first order at which the invalid ladders break B^t(X) B^t(Y) = 0.
INVALID_ORDER = 3


def _rank_one(sdata, i, scale):
    v = tuple(Fraction(int(j == i)) for j in range(sdata.dim))
    return _cube_scale(invariant.rank_one_cube(sdata, v), scale)


def _cube_scale(cube, scale):
    return [[[scale * x for x in row] for row in plane] for plane in cube]


def _cube_sum(c1, c2):
    return [[[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(p1, p2)] for p1, p2 in zip(c1, c2)]


def _zero_cube(dim):
    return [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]


def _scale(rng, top):
    return rng.choice((-1, 1)) * rng.randint(1, top)


def rank_one_cubes(rng, sdata, cap):
    """Each order a nonzero multiple of a rank-one cube on some e_i, i < n.
    The e_i, i < n, are pairwise omega-orthogonal, so the ladder is valid."""
    return [_zero_cube(sdata.dim)] + [
        _rank_one(sdata, rng.randrange(sdata.n), _scale(rng, 3)) for _ in range(cap)
    ]


def sum_cubes(rng, sdata, cap):
    """Each order the sum of rank-one cubes on two distinct e_i, i < n."""
    cubes = [_zero_cube(sdata.dim)]
    for _ in range(cap):
        i, j = rng.sample(range(sdata.n), 2)
        cubes.append(_cube_sum(_rank_one(sdata, i, _scale(rng, 2)),
                               _rank_one(sdata, j, _scale(rng, 2))))
    return cubes


def invalid_cubes(rng, sdata, cap):
    """Rank-one cubes on e_i at orders 1 and 3 and on e_{n+i} at order 2.
    omega(e_i, e_{n+i}) = 1, so B1 B2 + B2 B1 != 0 and validity, hence the
    Ricci-type identity, first fails at order 3."""
    i = rng.randrange(sdata.n)
    vec = (i, sdata.n + i, i)
    return [_zero_cube(sdata.dim)] + [_rank_one(sdata, vec[k], _scale(rng, 2)) for k in range(cap)]


def _curve(sdata, cubes):
    return invariant.StructureMapCurve(sdata, len(cubes) - 1, cubes, validate=False)


def _canonical(value):
    return json.dumps(value, sort_keys=True, default=str)


def _poly_ladder_text(ladder):
    return _canonical([[sorted((list(e), str(c)) for e, c in comp.coeffs.items())
                        for comp in field.comps] for field in ladder])


def _ladder_op(label, sdata, cubes, partner_cubes, bad_order):
    omega = [[Fraction(x) for x in row] for row in sdata.omega_lo]
    cap = len(cubes) - 1

    def refused(fn, *args):
        try:
            return fn(*args)
        except errors.PreconditionError as exc:
            return ("refused", str(exc))

    def call(inputs):
        ladder, partner = inputs
        return (
            moduli.validity_check(ladder),
            invariant.invariant_ricci_type_check(ladder),
            refused(invariant.flatness_theorem_check, ladder),
            refused(euclidean.equivalence_Rn, ladder, partner),
            euclidean.psi_A_symplectic_check(sdata, ladder.cubes[1]),
            euclidean.psi_A_connection_check(sdata, ladder.cubes[1]),
        )

    def check(_, out):
        valid, ricci, flat, merged, psi_symp, psi_conn = out
        checks.check_validity_verdict(valid, cubes, omega, bad_order)
        checks.check_ricci_verdict(ricci, bad_order)
        if bad_order is None:
            checks.check_flatness_report(flat, cap)
            checks.check_equivalence_rn(merged, cubes, partner_cubes, omega)
            merged_text = _poly_ladder_text(merged)
        else:
            checks.require(isinstance(flat, tuple) and flat[0] == "refused"
                           and isinstance(merged, tuple) and merged[0] == "refused",
                           "an invalid ladder was not refused")
            merged_text = _canonical(merged)
        # Every order-1 cube here is nilpotent, so psi^A is a symplectic
        # map carrying the flat connection to nabla^A.
        checks.require(psi_symp is True and psi_conn is True, "psi^A check failed")
        payload = "\n".join([_canonical(valid), _canonical(ricci), _canonical(flat), merged_text,
                             _canonical([psi_symp, psi_conn])])
        return payload.encode(), merged

    return Op(label, lambda: (_curve(sdata, cubes), _curve(sdata, partner_cubes)), call, check)


def _word(rng, gens, length):
    dim = len(gens[0])
    m = [[int(i == j) for j in range(dim)] for i in range(dim)]
    for _ in range(length):
        g = rng.choice(gens)
        m = [[sum(g[i][k] * m[k][j] for k in range(dim)) for j in range(dim)] for i in range(dim)]
    return m


def _query_op(label, sdata, cubes_a, cubes_b, bound, expected, separating_order=None):
    omega = [[Fraction(x) for x in row] for row in sdata.omega_lo]

    def call(inputs):
        a, b = inputs
        return moduli.equivalence_semidecide(moduli.ModuliClassQuery(a, b, bound))

    def check(_, verdict):
        checks.check_equivalence_verdict(verdict, expected, cubes_a, cubes_b, omega, bound,
                                         separating_order)
        payload = _canonical([verdict.kind, verdict.witness, verdict.separating, verdict.bound])
        return payload.encode(), None

    return Op(label, lambda: (_curve(sdata, cubes_a), _curve(sdata, cubes_b)), call, check)


def _ladder_ops(seed):
    rng = random.Random(f"ladders-{seed}")
    sdata = SymplecticData.standard(4)
    short = []
    for i in range(2):
        one = rank_one_cubes(rng, sdata, LADDER_CAP)
        two = sum_cubes(rng, sdata, LADDER_CAP)
        short.append(_ladder_op(f"dim4.rank_one.{i}", sdata, one, two, None))
        short.append(_ladder_op(f"dim4.sum.{i}", sdata, two, one, None))
    short.append(_ladder_op("dim4.invalid", sdata, invalid_cubes(rng, sdata, LADDER_CAP), one,
                            INVALID_ORDER))
    gens = moduli.sp_generators(sdata)
    for label, make, length in (("planted.rank_one.L2", rank_one_cubes, 2),
                                ("planted.sum.L2", sum_cubes, 2),
                                ("planted.rank_one.L3", rank_one_cubes, 3)):
        a = make(rng, sdata, LADDER_CAP)
        word = [[Fraction(x) for x in row] for row in _word(rng, gens, length)]
        short.append(_query_op(label, sdata, a, checks.pullback(a, word), length, "equivalent"))
    # Cheap invariants separate a rank-one order-1 cube from a sum of two.
    a = rank_one_cubes(rng, sdata, LADDER_CAP)
    b = [a[0], sum_cubes(rng, sdata, 1)[1]] + a[2:]
    short.append(_query_op("distinct.cube_rank", sdata, a, b, 2, "distinct", separating_order=1))
    # c w(., v)^3 -> 5 c w(., v)^3 would need C v = 5^(1/3) v with C integral:
    # the invariants agree but no word of any length relates the two.
    five = [_cube_scale(c, 5) for c in a]
    short.append(_query_op("distinct.scaled.L2", sdata, a, five, 2, "no_witness_within_bound"))

    sdata = SymplecticData.standard(6)
    one, two = rank_one_cubes(rng, sdata, LADDER_CAP), sum_cubes(rng, sdata, LADDER_CAP)
    dim6 = [_ladder_op("dim6.sum", sdata, two, one, None),
            _ladder_op("dim6.invalid", sdata, invalid_cubes(rng, sdata, LADDER_CAP), one,
                       INVALID_ORDER)]
    sdata = SymplecticData.standard(8)
    dim8 = [_ladder_op("dim8.rank_one", sdata, rank_one_cubes(rng, sdata, LADDER_CAP),
                       sum_cubes(rng, sdata, LADDER_CAP), None)]
    # One round holds the dim-6 and dim-8 ladders once; the short operations
    # run before, between and after them, so each has three samples spread
    # over the round and its median time does not hang on one moment of a
    # shared host.
    return short + dim6 + short + dim8 + short
