"""Registered cross-module property laws, each a literal assertable statement.

A law takes a seed, builds a deterministic fixture, and returns None on pass
or a witness dict on failure.  run_law drives a law over a seed list and
reports the first (minimal) failing seed with its witness.
"""

from __future__ import annotations

from fractions import Fraction

from sympconn.curvature import (
    bianchi_check,
    curvature_bundle,
    ricci_from_curvature,
)
from sympconn.errors import PreconditionError
from sympconn.euclidean import (
    psi_A,
    psi_A_connection_check,
    psi_A_symplectic_check,
)
from sympconn.fourier import SymplecticData
from sympconn.generate import (
    conjugated_flat_fixture,
    random_connection_curve,
    random_real_scalar,
    rank_one_ladder,
    validated_sum_ladder,
)
from sympconn.invariant import flatness_theorem_check, invariant_ricci_type_check
from sympconn.moduli import (
    _words_up_to,
    cheap_invariants,
    equivalence_semidecide,
    ModuliClassQuery,
    sp_action,
    sp_generators,
    validity_check,
)
from sympconn.symplecto import (
    SymplectoCurve,
    compose,
    factorize,
    one_param_group_check,
)
import random


def law_l1_decomposition(seed):
    """R = E + W exactly and the Ricci contraction of W vanishes per order."""
    conn = random_connection_curve(seed, dim=4, cap=2)
    bundle = curvature_bundle(conn)
    for k in range(conn.cap + 1):
        if bundle.E[k] + bundle.W[k] != bundle.R[k]:
            return {"order": k, "fail": "R != E + W"}
    trace_w = ricci_from_curvature(bundle.W, conn.sdata)
    for k in range(conn.cap + 1):
        if not trace_w[k].is_zero():
            return {"order": k, "fail": "omega-trace of W nonzero"}
    return None


def law_l2_bianchi(seed):
    """Both Bianchi identities hold for arbitrary valid curves."""
    conn = random_connection_curve(seed, dim=4, cap=2)
    report = bianchi_check(conn)
    if not report["ok"]:
        return report
    return None


def law_l3_invariant_flatness(seed):
    """Valid invariant curves are Ricci type with R = 0 and B(X)B(Y) = 0."""
    rng = random.Random(seed)
    dim = rng.choice([4, 6])
    sdata = SymplecticData.standard(dim)
    maker = rank_one_ladder if rng.random() < 0.5 else validated_sum_ladder
    b_curve = maker(sdata, 3, seed=rng.randrange(2**30))
    ok, witness = validity_check(b_curve)
    if not ok:
        return {"fail": "generator produced an invalid curve", "witness": witness}
    ok, witness = invariant_ricci_type_check(b_curve)
    if not ok:
        return {"fail": "Ricci-type identity", "witness": witness}
    flatness_theorem_check(b_curve)  # raises InternalInconsistency on violation
    return None


def law_l4_normalize_roundtrip(seed):
    """normalize_curve on a conjugated flat curve: flat invariant output,
    exact witness equation, and the input itself is flat through the cap."""
    from sympconn.normalization import normalize_curve

    _, _, moved = conjugated_flat_fixture(seed, dim=4, cap=3)
    normalize_curve(moved)  # all claims are asserted inside
    return None


def law_l5_low_order_vanishing(seed):
    """u, b, r, R vanish at orders 1 and 2 on Ricci-type inputs."""
    _, _, moved = conjugated_flat_fixture(seed, dim=4, cap=3)
    bundle = curvature_bundle(moved)
    for k in (1, 2):
        for label, curve in (("u", bundle.u), ("b", bundle.b),
                             ("r", bundle.r), ("R", bundle.R)):
            t = curve[k]
            if not t.is_zero():
                return {"order": k, "fail": f"{label} nonzero"}
    return None


def law_l6_psi_A(seed):
    """psi^A is symplectic, carries the flat connection to nabla^A, and
    psi^{aA} o psi^{bA} = psi^{(a+b)A}, with psi^{-aA} the inverse of
    psi^{aA}."""
    rng = random.Random(seed)
    sdata = SymplecticData.standard(4)
    ladder = rank_one_ladder(sdata, 1, seed=rng.randrange(2**30))
    cube = ladder.cubes[1]
    if not psi_A_symplectic_check(sdata, cube):
        return {"fail": "psi^A not symplectic"}
    if not psi_A_connection_check(sdata, cube):
        return {"fail": "psi^A . nabla^0 != nabla^A"}
    a = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    b = Fraction(rng.randint(-3, 3), rng.randint(1, 3))

    def scaled(c):
        return [[[c * x for x in row] for row in plane] for plane in cube]

    lhs = psi_A(sdata, scaled(a)).compose(psi_A(sdata, scaled(b)))
    rhs = psi_A(sdata, scaled(a + b))
    if lhs.comps != rhs.comps:
        return {"fail": "psi^{aA} o psi^{bA} != psi^{(a+b)A}", "a": a, "b": b}
    if not psi_A(sdata, scaled(a)).compose(psi_A(sdata, scaled(-a))).is_identity():
        return {"fail": "psi^{aA} o psi^{-aA} != id", "a": a}
    return None


def law_l7_moduli_action(seed):
    """sp_action is a group action preserving validity; planted witnesses
    are recovered by the bounded search, as words of length <= 2 that carry
    a to the planted curve."""
    rng = random.Random(seed)
    sdata = SymplecticData.standard(4)
    a = rank_one_ladder(sdata, 2, seed=rng.randrange(2**30))
    gens = sp_generators(sdata)
    g1, g2 = rng.choice(gens), rng.choice(gens)
    prod = tuple(
        tuple(sum(g1[i][k] * g2[k][j] for k in range(4)) for j in range(4))
        for i in range(4)
    )
    if sp_action(g1, sp_action(g2, a)) != sp_action(prod, a):
        return {"fail": "action not compatible with the group product"}
    ident = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))
    if sp_action(ident, a) != a:
        return {"fail": "identity does not act trivially"}
    moved = sp_action(prod, a)
    ok, witness = validity_check(moved)
    if not ok:
        return {"fail": "action broke validity", "witness": witness}
    if cheap_invariants(moved) != cheap_invariants(a):
        return {"fail": "cheap invariants not invariant"}
    verdict = equivalence_semidecide(ModuliClassQuery(a, moved, search_bound=2))
    if verdict.kind != "equivalent":
        return {"fail": "planted witness not recovered", "verdict": verdict.kind}
    if sp_action(verdict.witness, a) != moved:
        return {"fail": "witness does not carry a to the planted curve", "witness": verdict.witness}
    if verdict.witness not in _words_up_to(gens, 4, 2):
        return {"fail": "witness is not a word of length <= 2", "witness": verdict.witness}
    return None


def law_l8_factorize(seed):
    """Hamiltonian flows form one-parameter groups; factorize recovers an
    ordered product that re-composes to the original exponential."""
    rng = random.Random(seed)
    sdata = SymplecticData.standard(4)
    cap = 3
    f = random_real_scalar(rng, 4, max_modes=2, mode_bound=1)
    if f.is_zero():
        return None
    a = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
    b = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
    order = rng.randint(1, cap)
    if not one_param_group_check(sdata, cap, f.zero_mean(), order, a, b):
        return {"fail": "one-parameter group law", "order": order, "a": a, "b": b}
    g = random_real_scalar(rng, 4, max_modes=2, mode_bound=1).zero_mean()
    psi = SymplectoCurve.from_hamiltonian(sdata, cap, f.zero_mean(), 1)
    if not g.is_zero():
        psi = compose(SymplectoCurve.from_hamiltonian(sdata, cap, g, 2), psi)
    factors = []
    for y, k in factorize(psi):  # verified internally against the original
        gens = [y.zero(4) for _ in range(cap + 1)]
        gens[k] = y
        factors.append(SymplectoCurve.from_generators(sdata, cap, gens))
    rebuilt = compose(*factors) if factors else SymplectoCurve.identity(sdata, cap)
    if rebuilt != psi:
        return {"fail": "factor product differs from the original"}
    return None


LAWS = {
    "L1": law_l1_decomposition,
    "L2": law_l2_bianchi,
    "L3": law_l3_invariant_flatness,
    "L4": law_l4_normalize_roundtrip,
    "L5": law_l5_low_order_vanishing,
    "L6": law_l6_psi_A,
    "L7": law_l7_moduli_action,
    "L8": law_l8_factorize,
}


def run_law(law_id, seeds):
    """Run one registered law over seeds; report the minimal failing seed."""
    if law_id not in LAWS:
        raise PreconditionError(f"unknown law {law_id!r}; registered: {sorted(LAWS)}")
    law = LAWS[law_id]
    seeds = sorted(seeds)
    for seed in seeds:
        witness = law(seed)
        if witness is not None:
            return {"law": law_id, "pass": False, "seed": seed, "witness": witness}
    return {"law": law_id, "pass": True, "seeds": len(seeds)}
