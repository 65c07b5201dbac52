"""Normalization of Ricci-type connection curves to flat invariant ones.

Each order's symmetric 3-tensor splits as grad^3(potential) + constant part;
conjugating by the Hamiltonian step psi_{-U}(t^k) removes the potential and
leaves the constant part.  Iterating over orders produces a flat invariant
curve together with an explicit symplectomorphism witness, and every claim
the argument relies on (invariance of the order-k Ricci data, flatness of
the result, exactness of the witness) is asserted at runtime.
"""

from __future__ import annotations

from dataclasses import dataclass

from .curvature import (
    ConnectionCurve,
    CurvatureBundle,
    curvature_bundle,
    require_ricci_type,
)
from .errors import InternalInconsistency, NotExactCube, PreconditionError
from .fourier import FourierScalar, TensorField
from .invariant import StructureMapCurve, flatness_theorem_check, from_connection_curve
from .rationals import GaussianRational
from .symplecto import SymplectoCurve, act_on_connection, compose

_I_CUBED = GaussianRational(0, -1)  # (i)^3 = -i


@dataclass
class PotentialSplit:
    """S = grad^3(U) + Q with U zero-mean and Q the zero-mode part of S."""

    potential: FourierScalar
    constant: TensorField


def potential_split(s: TensorField) -> PotentialSplit:
    """Split a fully symmetric rank-3 field into grad^3(U) + Q.

    For each nonzero mode m, the candidate is read off one component with
    m_b != 0 via S_bbb(m) = (i m_b)^3 U^(m), then the component equations at
    that mode are verified exactly on p <= q <= r.  S is checked fully
    symmetric first and so is grad^3(U), so these cover every component,
    and the lexicographically first failing triple is a sorted one.
    Failure raises NotExactCube with the offending mode and component.

    The equations S_pqr(m) = i^3 U^(m) m_p m_q m_r read the stored
    components and coefficients directly and are compared without division:
    with S_bbb(m) = (X + iY) / d and D = d m_b^3, so that
    i^3 U^(m) = (X + iY) / D, and k = m_p m_q m_r, a stored coefficient
    (x + iy) / e matches when x D == X k e and y D == Y k e, and an absent
    one when X k == Y k == 0.
    Q keeps the zero-mode coefficient of each component of S as it is;
    its reality is checked where the flat ladder is read off.
    """
    if s.rank != 3 or not s.is_fully_symmetric():
        raise PreconditionError("potential_split needs a fully symmetric rank-3 field")
    dim, comps = s.dim, s.components
    zero_mode = (0,) * dim
    modes = set()
    for f in comps.values():
        modes.update(f.coeffs)
    modes.discard(zero_mode)
    triples = [(p, q, r) for p in range(dim) for q in range(p, dim) for r in range(q, dim)]
    u_coeffs = {}
    for m in sorted(modes):
        b = next(i for i, mi in enumerate(m) if mi)
        f = comps.get((b, b, b))
        s_bbb = f.coeffs.get(m) if f is not None else None
        x0, y0, den = (0, 0, 1) if s_bbb is None else (s_bbb.p, s_bbb.q, s_bbb.d * m[b] ** 3)
        for idx in triples:
            p, q, r = idx
            k = m[p] * m[q] * m[r]
            f = comps.get(idx)
            c = f.coeffs.get(m) if f is not None else None
            if c is None:
                ok = not (x0 * k or y0 * k)
            else:
                e = c.d
                ok = c.p * den == x0 * k * e and c.q * den == y0 * k * e
            if not ok:
                raise NotExactCube(m, idx)
        if s_bbb is not None:
            # (i m_b)^3 = -i m_b^3
            u_coeffs[m] = s_bbb / (_I_CUBED * (m[b] ** 3))
    potential = FourierScalar(dim, u_coeffs, _validated=True)
    if not potential.is_real():
        raise NotExactCube(zero_mode, (0, 0, 0), "potential is not real")
    zero_part = {}
    for idx, f in s.components.items():
        c = f.coeffs.get(zero_mode)
        if c is not None:
            zero_part[idx] = FourierScalar(dim, {zero_mode: c}, _validated=True)
    constant = TensorField(dim, 3, zero_part, "fully_symmetric", _validated=True)
    return PotentialSplit(potential, constant)


def _assert_order_invariant(bundle: CurvatureBundle, k):
    """The order-k Ricci data (r, u, b) of a Ricci-type curve whose lower
    orders are invariant must itself be invariant; a violation is a bug."""
    for label, curve in (("r", bundle.r), ("u", bundle.u), ("b", bundle.b)):
        if not curve[k].is_constant():
            raise InternalInconsistency(
                f"{label}^({k}) is not invariant although orders below {k} are"
            )


def recurrence_step(conn: ConnectionCurve, k, carried=None):
    """One normalization step at order k.

    Returns (f_k, updated curve, psi step, carry) where f_k = -U^(k) and the
    updated curve equals psi_{f_k}(t^k) . conn with invariant order-k term
    Q, the zero-mode part of conn.abar[k].  Preconditions: orders < k
    invariant, curve Ricci type through order k.

    The step reads the curvature bundle of the order-k head of conn
    (`ConnectionCurve.head`), which is the bundle of conn at orders <= k:
    order j of each of its curves reads A^(s) for s <= j only.  No order
    above k of conn enters a bundle, so a curve whose W first fails at an
    order j > k is refused by the step at order j.  carry = (bundle, start)
    holds that head's bundle and the order below which it is also the
    bundle of the updated curve: k, since the step asserts that no order
    below k moved, or k + 1 when the step is the identity and the updated
    curve is conn itself.  Passed as `carried` to the step at order k + 1,
    it leaves that step the bundle orders k and k + 1 to compute, or order
    k + 1 alone after an identity step.
    """
    if not 1 <= k <= conn.cap:
        raise PreconditionError("step order must lie in 1..K")
    for p in range(1, k):
        if not conn.abar[p].is_constant():
            raise PreconditionError(f"order {p} must already be invariant")
    bundle = curvature_bundle(conn.head(k), carried)
    require_ricci_type(bundle)
    _assert_order_invariant(bundle, k)
    split = potential_split(conn.abar[k])
    f_k = -split.potential
    if f_k.is_zero():
        step = SymplectoCurve.identity(conn.sdata, conn.cap)
        updated = conn
    else:
        step = SymplectoCurve.from_hamiltonian(conn.sdata, conn.cap, f_k, k)
        updated = act_on_connection(step, conn)
    if updated.abar[k] != split.constant:
        raise InternalInconsistency(
            f"order-{k} term after the Hamiltonian step is not the constant part"
        )
    # an identity step returns conn itself, so there is nothing to compare
    if updated is not conn:
        for p in range(1, k):
            if updated.abar[p] != conn.abar[p]:
                raise InternalInconsistency(
                    f"the order-{k} step modified the settled order {p}"
                )
    return f_k, updated, step, (bundle, k + 1 if updated is conn else k)


@dataclass
class NormalizationResult:
    flat_curve: StructureMapCurve
    witness: SymplectoCurve
    per_order_log: list


def normalize_curve(conn: ConnectionCurve) -> NormalizationResult:
    """Conjugate a Ricci-type curve to a flat invariant one.

    The witness is the composition of the per-order Hamiltonian steps,
    normal-ordered once: one `compose` of the steps that move their curve
    (f_k nonzero), latest step outermost, after the last step; the
    identity when no step moves it.  An identity step is an exact no-op
    of the composition, so leaving it out changes nothing.  witness . input
    = embedded flat curve is asserted exactly, as is flatness of the
    resulting invariant curve and, as a corollary, flatness of the input
    itself.  A curve that is not of Ricci type is refused by the step at
    its first order where W does not vanish, after the steps below it; a
    cap-0 curve is flat.  Step k builds the bundle of its order-k head
    only and hands it to the next step (see `recurrence_step`): the order-1
    step builds orders 0 and 1, a later step at order k the orders k - 1
    and k, or order k alone after an identity step.

    The flat ladder is read off the last stepped curve once, by
    `from_connection_curve`, which also refuses a constant part that is not
    real.  The final check compares witness . input with that last curve,
    which is the embedded flat curve without building it again: step k
    asserted that its order k is Q_k, the zero-mode part of the order-k
    term it was given, and that orders below k are unchanged, so the last
    curve is embed_invariant(flat).  Order 0 of witness . input is zero
    (`act_on_connection` asserts it), so equality pins order 0 of the last
    curve to zero as well.  What the check tests is the composition:
    witness . input is one action of the single merge of all steps, while
    the last curve is the steps' actions applied one by one.  It and the
    flatness check of the input read every order of the input.
    """
    sdata, cap = conn.sdata, conn.cap
    steps = []
    current = conn
    carry = None
    log = []
    for k in range(1, cap + 1):
        f_k, current, step, carry = recurrence_step(current, k, carry)
        if not f_k.is_zero():
            steps.append(step)
        log.append(
            {
                "order": k,
                "potential_support": len(f_k.coeffs),
                "order_now_invariant": current.abar[k].is_constant(),
            }
        )
    if not current.is_invariant():
        raise InternalInconsistency("normalized curve is not invariant at all orders")
    flat = from_connection_curve(current)
    flatness_theorem_check(flat)
    witness = compose(*reversed(steps)) if steps else SymplectoCurve.identity(sdata, cap)
    if act_on_connection(witness, conn) != current:
        raise InternalInconsistency("witness does not conjugate the input to the flat curve")
    if not all(t.is_zero() for t in conn.curvature.orders):
        raise InternalInconsistency(
            "input of a successful normalization must itself be flat"
        )
    return NormalizationResult(flat, witness, log)
