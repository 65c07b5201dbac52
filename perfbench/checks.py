"""Checks of the program's outputs written apart from the program.

Nothing here calls into ``sympconn``: program objects are only read
(coefficient dicts, cube arrays, verdict fields), and every quantity a check
compares against is computed by the short formulas below with
``fractions.Fraction``.  A check raises `CheckFailed` naming what differs.
"""

from __future__ import annotations

import json
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)
G_ZERO = (ZERO, ZERO)
G_ONE = (ONE, ZERO)


class CheckFailed(Exception):
    """An output of the program disagrees with the independent computation."""


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


# -- exact Gaussian rationals as (re, im) pairs -----------------------------------


def g_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def g_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def g_scale(x, q):
    return (x[0] * q, x[1] * q)


def g_nonzero(x):
    return bool(x[0]) or bool(x[1])


# -- small dense linear algebra over Fraction --------------------------------------


def standard_omega(dim):
    """omega(e_i, e_{n+i}) = 1, the block form the workloads use."""
    n = dim // 2
    w = [[ZERO] * dim for _ in range(dim)]
    for i in range(n):
        w[i][n + i] = ONE
        w[n + i][i] = -ONE
    return w


def inverse(m):
    """Gauss-Jordan inverse of a square Fraction matrix."""
    n = len(m)
    aug = [[Fraction(x) for x in row] + [ONE if i == j else ZERO for j in range(n)]
           for i, row in enumerate(m)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = ONE / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def matmul(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), ZERO)
             for j in range(len(b[0]))] for i in range(len(a))]


def transpose(a):
    return [list(col) for col in zip(*a)]


# -- evaluation of trigonometric polynomials at a rational point -------------------

# Pythagorean triples (a, b, c): (a + b i) / c has modulus one, so it is
# e^{i x} for a real angle x and e^{-i x} is its conjugate.
PYTHAGOREAN = ((3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25), (20, 21, 29), (12, 35, 37))


def rational_point(rng, dim):
    """A point of the torus whose coordinates e^{i x_j} are rational units."""
    point = []
    for _ in range(dim):
        a, b, c = rng.choice(PYTHAGOREAN)
        if rng.random() < 0.5:
            a, b = b, a
        point.append((Fraction(rng.choice((1, -1)) * a, c), Fraction(rng.choice((1, -1)) * b, c)))
    return tuple(point)


class PointEvaluator:
    """Values of sum_m c_m e^{i m.x} and its partials at one rational point."""

    def __init__(self, point):
        self.point = point
        self._powers = {}
        self._monomials = {}

    def _power(self, j, e):
        key = (j, e)
        val = self._powers.get(key)
        if val is None:
            z = self.point[j]
            if e == 0:
                val = G_ONE
            elif e > 0:
                val = g_mul(self._power(j, e - 1), z)
            else:
                val = g_mul(self._power(j, e + 1), (z[0], -z[1]))
            self._powers[key] = val
        return val

    def monomial(self, mode):
        val = self._monomials.get(mode)
        if val is None:
            val = G_ONE
            for j, e in enumerate(mode):
                if e:
                    val = g_mul(val, self._power(j, e))
            self._monomials[mode] = val
        return val

    def value(self, scalar):
        """Value of a program scalar, read through its ``coeffs`` dict."""
        re = im = ZERO
        for mode, c in scalar.coeffs.items():
            z = self.monomial(mode)
            re += c.re * z[0] - c.im * z[1]
            im += c.re * z[1] + c.im * z[0]
        return (re, im)

    def partial(self, scalar, axis):
        """Value of d/dx_axis: each mode is multiplied by i m_axis."""
        re = im = ZERO
        for mode, c in scalar.coeffs.items():
            k = mode[axis]
            if k:
                z = self.monomial(mode)
                # i k (c.re + i c.im) z
                re -= k * (c.re * z[1] + c.im * z[0])
                im += k * (c.re * z[0] - c.im * z[1])
        return (re, im)

    def tensor(self, field):
        """Nonzero component values of a program tensor field."""
        out = {}
        for idx, f in field.components.items():
            v = self.value(f)
            if g_nonzero(v):
                out[idx] = v
        return out


def _acc(d, key, v):
    cur = d.get(key, G_ZERO)
    s = g_add(cur, v)
    if g_nonzero(s):
        d[key] = s
    else:
        d.pop(key, None)


def curvature_at_point(abar, omega_lo, ev):
    """R_{abcd} and r_{ab} per order at the evaluator's point.

    ``abar`` holds the input's lowered difference tensors, orders 0..K, as
    dicts from (a, b, c) to program scalars.  With A^p_{ab} = w^{cp} A_{abc}:
      R^p_{abc} = d_a A^p_{bc} - d_b A^p_{ac}
                  + sum_{s+s'=k} (A^p_{aq}(s) A^q_{bc}(s') - A^p_{bq}(s) A^q_{ac}(s'))
      R_{abcd} = R^p_{abc} w_{pd},   r_{ab} = R^q_{aqb}.
    """
    dim = len(omega_lo)
    hi = inverse(omega_lo)
    cap = len(abar) - 1
    mixed, dmixed = [], []
    for comps in abar:
        a_k, da_k = {}, {}
        for (a, b, c), f in comps.items():
            v = ev.value(f)
            dv = [ev.partial(f, d) for d in range(dim)]
            for p in range(dim):
                w = hi[c][p]
                if not w:
                    continue
                if g_nonzero(v):
                    _acc(a_k, (a, b, p), g_scale(v, w))
                for d in range(dim):
                    if g_nonzero(dv[d]):
                        _acc(da_k, (d, a, b, p), g_scale(dv[d], w))
        mixed.append(a_k)
        dmixed.append(da_k)
    r4_orders, r2_orders = [], []
    for k in range(cap + 1):
        up = {}  # (a, b, c, p) -> R^p_{abc}
        for (d, b, c, p), v in dmixed[k].items():
            _acc(up, (d, b, c, p), v)
            _acc(up, (b, d, c, p), g_scale(v, -ONE))
        for s in range(1, k):
            for (a, q, p), x in mixed[s].items():
                for (b, c, q2), y in mixed[k - s].items():
                    if q2 == q:
                        prod = g_mul(x, y)
                        _acc(up, (a, b, c, p), prod)
                        _acc(up, (b, a, c, p), g_scale(prod, -ONE))
        r4, r2 = {}, {}
        for (a, b, c, p), v in up.items():
            for d in range(dim):
                if omega_lo[p][d]:
                    _acc(r4, (a, b, c, d), g_scale(v, omega_lo[p][d]))
            if b == p:
                _acc(r2, (a, c), v)
        r4_orders.append(r4)
        r2_orders.append(r2)
    return r4_orders, r2_orders


def check_curvature_bundle(conn, bundle, points):
    """R and r against `curvature_at_point`, and R = E + W with W trace
    free, at each point."""
    omega_lo = [[Fraction(x) for x in row] for row in conn.sdata.omega_lo]
    hi = inverse(omega_lo)
    cap = conn.cap
    abar = [dict(t.components) for t in conn.abar]
    for curve in (bundle.R, bundle.r, bundle.E, bundle.W):
        require(len(curve.orders) == cap + 1, "bundle curve has the wrong number of orders")
    for point in points:
        ev = PointEvaluator(point)
        want_r4, want_r2 = curvature_at_point(abar, omega_lo, ev)
        for k in range(cap + 1):
            got_r4 = ev.tensor(bundle.R[k])
            require(got_r4 == want_r4[k], f"R at order {k} differs at the point {point}")
            require(ev.tensor(bundle.r[k]) == want_r2[k],
                    f"Ricci at order {k} differs at the point {point}")
            e, w = ev.tensor(bundle.E[k]), ev.tensor(bundle.W[k])
            total = dict(e)
            for idx, v in w.items():
                _acc(total, idx, v)
            require(total == got_r4, f"E + W != R at order {k}")
            trace = {}
            for (a, q, b, d), v in w.items():
                if hi[d][q]:
                    _acc(trace, (a, b), g_scale(v, hi[d][q]))
            require(not trace, f"W is not trace free at order {k}")


def check_flat_bundle(bundle, cap):
    """A curve conjugate to a flat one is flat: R, r and W vanish, and the
    u/b extraction ran with zero residuals."""
    for label in ("R", "r", "W"):
        require(all(not t.components for t in getattr(bundle, label).orders),
                f"{label} of a conjugated flat curve is not zero")
    require(bundle.u is not None and bundle.b is not None,
            "u and b missing on a Ricci-type curve")
    require(bundle.residuals.get("ok") is True, "u/b residuals are not zero")
    require(len(bundle.u.orders) == cap + 1, "u has the wrong number of orders")


def check_bianchi(report, cap):
    """Both Bianchi identities hold for every torsion-free connection."""
    require(report["first"] == [True] * (cap + 1), "first Bianchi identity reported false")
    require(report["second"] == [True] * (cap + 1), "second Bianchi identity reported false")
    require(report["ok"] is True, "Bianchi report is not ok")


# -- structure-map ladders -----------------------------------------------------------


def cube_matrices(cube, omega_lo):
    """(B(e_a))^p_b = w^{cp} S_{abc} for each basis direction a."""
    dim = len(omega_lo)
    hi = inverse(omega_lo)
    mats = []
    for a in range(dim):
        m = [[ZERO] * dim for _ in range(dim)]
        for b in range(dim):
            for c in range(dim):
                v = cube[a][b][c]
                if v:
                    for p in range(dim):
                        if hi[c][p]:
                            m[p][b] += hi[c][p] * v
        mats.append(m)
    return mats


def product_sum(cubes, omega_lo, k, a, b):
    """sum_{p+q=k} B^(p)(e_a) B^(q)(e_b)."""
    dim = len(omega_lo)
    total = [[ZERO] * dim for _ in range(dim)]
    for p in range(k + 1):
        m = matmul(cube_matrices(cubes[p], omega_lo)[a], cube_matrices(cubes[k - p], omega_lo)[b])
        total = [[x + y for x, y in zip(r, s)] for r, s in zip(total, m)]
    return total


def check_cubes_equal(got, want, what):
    require(len(got) == len(want), f"{what}: {len(got)} cubes, expected {len(want)}")
    for k, (g, w) in enumerate(zip(got, want)):
        dim = len(w)
        same = all(
            Fraction(g[a][b][c]) == Fraction(w[a][b][c])
            for a in range(dim) for b in range(dim) for c in range(dim)
        )
        require(same, f"{what}: order-{k} cube differs")


def check_validity_verdict(verdict, cubes, omega_lo, bad_order):
    """validity_check must return (True, None) for a valid ladder, and name
    the first bad order of an invalid one with a pair that really fails."""
    ok, witness = verdict
    if bad_order is None:
        require(ok is True and witness is None, f"valid ladder reported invalid: {witness}")
        return
    require(ok is False, "invalid ladder reported valid")
    require(witness["identity"] == "A(X)A(Y) = 0", f"wrong failing identity {witness}")
    require(witness["order"] == bad_order, f"failing order {witness['order']}, expected {bad_order}")
    a, b = witness["pair"]
    prod = product_sum(cubes, omega_lo, bad_order, a, b)
    require(any(x for row in prod for x in row), f"reported pair {(a, b)} does not fail")


def check_ricci_verdict(verdict, bad_order):
    """Ricci type holds through every order below the first bad one (the
    truncation there is valid, hence flat) and fails at that order."""
    ok, witness = verdict
    if bad_order is None:
        require(ok is True and witness is None, f"valid ladder not Ricci type: {witness}")
    else:
        require(ok is False, "invalid ladder reported Ricci type")
        require(witness["order"] == bad_order,
                f"Ricci type fails first at order {witness['order']}, expected {bad_order}")


def check_flatness_report(report, cap):
    require(report == {"curvature_zero": [True] * (cap + 1), "bb_zero": [True] * (cap + 1),
                       "ok": True}, f"unexpected flatness report {report}")


def structure_field_coeffs(cube, omega_lo):
    """X_A(x) = -(1/2) A(x) x per component: exponent tuple -> coefficient."""
    dim = len(omega_lo)
    mats = cube_matrices(cube, omega_lo)
    comps = []
    for p in range(dim):
        quad = {}
        for a in range(dim):
            for b in range(dim):
                v = mats[a][p][b]
                if v:
                    e = [0] * dim
                    e[a] += 1
                    e[b] += 1
                    e = tuple(e)
                    quad[e] = quad.get(e, ZERO) - v / 2
        comps.append({e: c for e, c in quad.items() if c})
    return comps


def check_equivalence_rn(merged, cubes_a, cubes_b, omega_lo):
    """exp Z = exp(-X_A) exp(X_B): Z has no order-0 term and its order-1
    term is X_{B^(1)} - X_{A^(1)}, the first term of the BCH series."""
    dim = len(omega_lo)
    cap = len(cubes_a) - 1
    require(len(merged) == cap + 1, "merged ladder has the wrong number of orders")
    require(all(not c.coeffs for c in merged[0].comps), "merged ladder has an order-0 term")
    diff = [[[Fraction(cubes_b[1][a][b][c]) - Fraction(cubes_a[1][a][b][c]) for c in range(dim)]
             for b in range(dim)] for a in range(dim)]
    want = structure_field_coeffs(diff, omega_lo)
    got = [dict(c.coeffs) for c in merged[1].comps]
    require(got == want, "order-1 generator of the R^2n equivalence is not X_B - X_A")


# -- Sp(2n, Z) witnesses ---------------------------------------------------------------


def pullback(cubes, c_mat):
    """S'(e_p, e_q, e_r) = S(C^-1 e_p, C^-1 e_q, C^-1 e_r), one slot at a time."""
    r = range(len(c_mat))
    g = inverse(c_mat)  # C^-1 e_p = sum_m g[m][p] e_m
    out = []
    for cube in cubes:
        t = [[[Fraction(x) for x in row] for row in plane] for plane in cube]
        t = [[[sum((g[m][i] * t[m][j][k] for m in r), ZERO) for k in r] for j in r] for i in r]
        t = [[[sum((g[m][j] * t[i][m][k] for m in r), ZERO) for k in r] for j in r] for i in r]
        t = [[[sum((g[m][k] * t[i][j][m] for m in r), ZERO) for k in r] for j in r] for i in r]
        out.append(t)
    return out


def check_equivalence_verdict(verdict, expected, cubes_a, cubes_b, omega_lo, bound,
                              separating_order=None):
    """The verdict known by construction; an equivalence witness must be an
    integral symplectic matrix whose pullback carries a to b."""
    require(verdict.kind == expected, f"verdict {verdict.kind}, expected {expected}")
    if expected == "equivalent":
        c = verdict.witness
        require(all(isinstance(x, int) for row in c for x in row), "witness is not integral")
        cf = [[Fraction(x) for x in row] for row in c]
        require(matmul(matmul(transpose(cf), omega_lo), cf) == omega_lo,
                "witness is not symplectic")
        check_cubes_equal(pullback(cubes_a, cf), cubes_b, "witness pullback")
    elif expected == "distinct":
        require(verdict.separating["order"] == separating_order,
                f"separated at order {verdict.separating['order']}, expected {separating_order}")
    else:
        require(verdict.bound == bound, f"exhaustion reported at bound {verdict.bound}")


# -- normalization -----------------------------------------------------------------------


def check_normalization(result, planted_cubes, flat_text, witness_text, cap, dim):
    """The flat curve is the planted ladder, both in memory and as written;
    the witness is a pure exp of real generators with identity affine part."""
    check_cubes_equal(result.flat_curve.cubes, planted_cubes, "normalized flat curve")
    flat = json.loads(flat_text)
    require(flat["kind"] == "structure_map_curve" and flat["cap"] == cap and flat["dim"] == dim,
            "written flat curve has the wrong header")
    written = [[[[Fraction(x) for x in row] for row in plane] for plane in cube]
               for cube in flat["cubes"]]
    check_cubes_equal(written, planted_cubes, "written flat curve")
    wit = json.loads(witness_text)
    require(wit["kind"] == "symplecto_curve" and len(wit["X"]) == cap,
            "written witness has the wrong header")
    require(wit["C"] == [[int(i == j) for j in range(dim)] for i in range(dim)]
            and all(Fraction(x) == 0 for x in wit["d"]),
            "witness of Hamiltonian steps has a non-identity affine part")
    for order in wit["X"]:
        require(len(order) == dim, "witness generator has the wrong number of components")
        for comp in order:
            coeffs = {tuple(e["m"]): (Fraction(e["c"]["re"]), Fraction(e["c"]["im"]))
                      for e in comp}
            for m, (re, im) in coeffs.items():
                require(coeffs.get(tuple(-x for x in m)) == (re, -im),
                        "witness generator is not real")
    log = result.per_order_log
    require([e["order"] for e in log] == list(range(1, cap + 1))
            and all(e["order_now_invariant"] for e in log), f"bad per-order log {log}")
