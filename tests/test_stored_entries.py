"""The paths that read only stored entries against the forms that read every
entry (`references`): u, b and the residual verdicts, the potential split,
the Lie series on connections and what normalization builds from them,
under standard, skew and non-monomial omega, on the torus and on R^(2n)."""

import random
import sys

import pytest

import sympconn.curvature as curvature
import sympconn.euclidean as euclidean
import sympconn.normalization as normalization
import sympconn.symplecto as symplecto
from sympconn._kernel.pure import GaussianSums
from sympconn.curvature import ConnectionCurve, curvature_bundle
from sympconn.errors import NotExactCube
from sympconn.euclidean import equivalence_Rn, psi_At_connection_check
from sympconn.fourier import FourierScalar, SymplecticData, TensorField
from sympconn.generate import (
    gradient_curve,
    random_connection_curve,
    random_symmetric_field,
    rank_one_ladder,
)
from sympconn.normalization import normalize_curve, potential_split
from sympconn.serialize import dumps
from sympconn.series import exp_lie_connection

from references import (
    exp_lie_connection_summed,
    potential_split_by_lookup,
    u_b_orders_every_entry,
    validated_sum_ladder,
)
from test_curvature import _nonstandard_sdata
from test_normalization import SD_SKEW, every_order_fixture

OMEGAS = {
    "standard4": SymplecticData.standard(4),
    "skew4": SD_SKEW,
    "nonmonomial4": _nonstandard_sdata(4),
    "standard6": SymplecticData.standard(6),
    "nonmonomial6": _nonstandard_sdata(6),
}


def _random_curve(sdata, seed, cap=3):
    """A generic curve, not of Ricci type, under any omega."""
    rng = random.Random(seed)
    return ConnectionCurve(sdata, cap, [random_symmetric_field(rng, sdata.dim, triples=3)
                                        for _ in range(cap)])


def _gradient(sdata, cap=3):
    """grad^3 of cos(x^1) + sin(x^2 + x^3) at order 1: curved from order 2."""
    pad = (0,) * (sdata.dim - 3)
    f = FourierScalar.cosine(sdata.dim, (1, 0, 0) + pad) + FourierScalar.sine(
        sdata.dim, (0, 1, 1) + pad)
    return gradient_curve(sdata, cap, f, 1)


CURVES = [(f"{kind}-{name}", make, sdata) for name, sdata in OMEGAS.items()
          for kind, make in (("gradient", _gradient),
                             ("random", lambda sd: _random_curve(sd, sd.dim)))] + [
    ("random-standard4-seed5", lambda sd: random_connection_curve(5, dim=4, cap=4),
     OMEGAS["standard4"]),
    ("every-order-dim4", lambda sd: every_order_fixture(None, 4, 4), None),
    ("every-order-dim6", lambda sd: every_order_fixture(None, 6, 3), None),
    ("every-order-skew", lambda sd: every_order_fixture(SD_SKEW, 4, 4), None),
    ("every-order-nonmonomial", lambda sd: every_order_fixture(OMEGAS["nonmonomial4"], 4, 3),
     None),
]


@pytest.mark.parametrize("make,sdata", [c[1:] for c in CURVES], ids=[c[0] for c in CURVES])
def test_u_b_orders_equal_the_every_entry_form(make, sdata):
    """u, b and the three residual verdicts, from order 0 and from order 2
    with the head of u given, equal those of the form that tests every
    entry of omega and adds empty maps."""
    conn = make(sdata)
    r = curvature_bundle(conn).r.orders
    got = curvature._u_b_orders(conn, r, [], 0)
    assert got == u_b_orders_every_entry(conn, r, [], 0)
    u = got[0]
    assert curvature._u_b_orders(conn, r, u[:2], 2) == u_b_orders_every_entry(conn, r, u[:2], 2)


def test_the_curves_reach_nonzero_u_b_and_failing_residuals():
    """The curves above exercise the nonzero paths too: some u, b are
    nonzero and some residual verdicts fail."""
    nonzero = failing = 0
    for _, make, sdata in CURVES:
        conn = make(sdata)
        u, b, flags = curvature._u_b_orders(conn, curvature_bundle(conn).r.orders, [], 0)
        nonzero += any(not t.is_zero() for t in u + b)
        failing += not all(map(all, flags))
    assert nonzero >= 8 and failing >= 8


def _same_split(s):
    """potential_split and the lookup form agree: equal splits, or the same
    NotExactCube (mode, component and message)."""
    try:
        want = potential_split_by_lookup(s)
    except NotExactCube as err:
        with pytest.raises(NotExactCube) as got:
            potential_split(s)
        assert (got.value.mode, got.value.idx, str(got.value)) == (err.mode, err.idx, str(err))
        return None
    got = potential_split(s)
    assert got.potential == want.potential and got.constant == want.constant
    assert list(got.potential.coeffs) == list(want.potential.coeffs)
    return got


@pytest.mark.parametrize("make,sdata", [c[1:] for c in CURVES], ids=[c[0] for c in CURVES])
def test_potential_split_equals_the_lookup_form_on_every_order(make, sdata):
    conn = make(sdata)
    for t in conn.abar:
        _same_split(t)


def _cube_of(f):
    s = TensorField(f.dim, 0, {(): f}, _validated=True).grad().grad().grad()
    return TensorField(f.dim, 3, s.components, "fully_symmetric", _validated=True)


def _with_entry(s, idx, mode, coeff):
    """s with the coefficient at `mode` of every permutation of idx set to
    coeff (dropped when None), and at -mode to its conjugate."""
    from itertools import permutations

    comps = dict(s.components)
    for key in set(permutations(idx)):
        coeffs = dict(comps[key].coeffs) if key in comps else {}
        for m, c in ((mode, coeff), (tuple(-x for x in mode), coeff and coeff.conjugate())):
            if c is None:
                coeffs.pop(m, None)
            else:
                coeffs[m] = c
        comps[key] = FourierScalar(s.dim, coeffs, _validated=True)
    return TensorField(s.dim, 3, comps, "fully_symmetric")


def test_not_exact_cube_names_an_absent_or_a_stray_coefficient():
    """grad^3 of cos(x^1 + x^2) - 2 sin(x^2 - x^4) with one coefficient
    taken away where the cube needs it (at S_011; at S_000 = S_bbb itself
    the candidate U(m) is 0 and the first stored S_001 fails), or one put
    where it needs none (S_233, where m_3 = 0): the
    split names the same first (mode, p <= q <= r) as the lookup form and
    the check over all components."""
    from sympconn.rationals import GaussianRational
    from test_normalization import reference_first_defect

    f = FourierScalar.cosine(4, (1, 1, 0, 0)) - FourierScalar.sine(4, (0, 1, 0, -1)).scale(2)
    cube = _cube_of(f)
    assert _same_split(cube).potential == f
    cases = {
        "absent": (_with_entry(cube, (0, 1, 1), (1, 1, 0, 0), None), (-1, -1, 0, 0), (0, 1, 1)),
        "absent-bbb": (_with_entry(cube, (0, 0, 0), (1, 1, 0, 0), None),
                       (-1, -1, 0, 0), (0, 0, 1)),
        "stray": (_with_entry(cube, (2, 3, 3), (0, 1, 0, -1), GaussianRational(3, 1)),
                  (0, -1, 0, 1), (2, 3, 3)),
    }
    for name, (s, mode, idx) in cases.items():
        assert reference_first_defect(s) == (mode, idx), name
        with pytest.raises(NotExactCube) as err:
            potential_split(s)
        assert (err.value.mode, err.value.idx) == (mode, idx), name
        _same_split(s)


NORMALIZED = [c for c in CURVES if c[0].startswith("every-order")]


@pytest.mark.parametrize("make", [c[1] for c in NORMALIZED], ids=[c[0] for c in NORMALIZED])
def test_normalization_equals_the_every_entry_forms_call_by_call(make, monkeypatch):
    """Every call of `_u_b_orders`, `potential_split` and the Lie series of
    `act_on_connection` inside normalize_curve returns what the every-entry
    forms return; with those forms patched in, the flat curve, the witness
    and the log are the same bytes."""
    conn = make(None)
    plain = normalize_curve(conn)
    calls = {"u_b": 0, "split": 0, "lie": 0}
    u_b, split = curvature._u_b_orders, normalization.potential_split

    def checked_u_b(c, r, head, start):
        calls["u_b"] += 1
        got = u_b(c, r, head, start)
        assert got == u_b_orders_every_entry(c, r, head, start)
        return got

    def checked_split(s):
        calls["split"] += 1
        return _same_split(s)

    def checked_lie(gens, gamma):
        calls["lie"] += 1
        got = exp_lie_connection(gens, gamma)
        want = exp_lie_connection_summed(gens, gamma)
        assert got == want and [list(o) for o in got] == [list(o) for o in want]
        return got

    monkeypatch.setattr(curvature, "_u_b_orders", checked_u_b)
    monkeypatch.setattr(normalization, "potential_split", checked_split)
    monkeypatch.setattr(symplecto, "exp_lie_connection", checked_lie)
    assert dumps(normalize_curve(conn).flat_curve) == dumps(plain.flat_curve)
    assert all(calls.values()), calls
    monkeypatch.setattr(curvature, "_u_b_orders", u_b_orders_every_entry)
    monkeypatch.setattr(normalization, "potential_split", potential_split_by_lookup)
    monkeypatch.setattr(symplecto, "exp_lie_connection", exp_lie_connection_summed)
    slow = normalize_curve(conn)
    assert dumps(slow.flat_curve) == dumps(plain.flat_curve)
    assert dumps(slow.witness) == dumps(plain.witness)
    assert slow.per_order_log == plain.per_order_log


@pytest.mark.parametrize("dim", [4, 6])
def test_the_lie_series_on_R2n_equals_the_summed_form(dim, monkeypatch):
    """On R^(2n) the Lie series of `psi_At_connection_check` and of
    `equivalence_Rn` returns, call by call, what the form that sums every
    order returns, at dims 4 and 6."""
    sdata = SymplecticData.standard(dim)
    calls = []

    def checked_lie(gens, gamma):
        got = exp_lie_connection(gens, gamma)
        assert got == exp_lie_connection_summed(gens, gamma)
        calls.append(sum(map(len, got)))
        return got

    monkeypatch.setattr(euclidean, "exp_lie_connection", checked_lie)
    for seed in range(3):
        a = rank_one_ladder(sdata, 3, seed=seed)
        b = validated_sum_ladder(sdata, 3, seed=seed)
        assert psi_At_connection_check(a) and psi_At_connection_check(b)
        equivalence_Rn(a, b)
    assert len(calls) == 9 and any(calls)


def test_normalize_reads_no_placeholder_entries(monkeypatch):
    """On the dim-4 cap-4 every-order fixture, `potential_split` builds no
    zero scalar or coefficient through `TensorField.get` and
    `FourierScalar.coeff`, and `_u_b_orders` adds no empty coefficient map
    to a `GaussianSums`."""
    conn = every_order_fixture(None, 4, 4)
    lookups, empty_adds = [], []

    def caller():
        return sys._getframe(2).f_code.co_name

    def watch(cls, name, log, test):
        method = getattr(cls, name)

        def watched(self, *args, **kwargs):
            if test(args):
                log.append((caller(), name))
            return method(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, watched)

    watch(TensorField, "get", lookups, lambda args: True)
    watch(FourierScalar, "coeff", lookups, lambda args: True)
    watch(GaussianSums, "add", empty_adds, lambda args: not args[1])
    watch(GaussianSums, "add_derivative", empty_adds, lambda args: not args[1])
    watch(GaussianSums, "add_product", empty_adds, lambda args: not (args[1] and args[2]))
    normalize_curve(conn)
    assert [c for c in lookups if c[0] == "potential_split"] == []
    assert [c for c in empty_adds if c[0] == "_u_b_orders"] == []
