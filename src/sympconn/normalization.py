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
    Q keeps the zero-mode coefficient of each component of S as it is;
    its reality is checked where the flat ladder is read off.
    """
    if s.rank != 3 or not s.is_fully_symmetric():
        raise PreconditionError("potential_split needs a fully symmetric rank-3 field")
    dim = s.dim
    zero_mode = (0,) * dim
    modes = set()
    for f in s.components.values():
        modes.update(f.coeffs)
    modes.discard(zero_mode)
    u_coeffs = {}
    for m in sorted(modes):
        b = next(i for i, mi in enumerate(m) if mi)
        s_bbb = s.get((b, b, b)).coeff(m)
        # (i m_b)^3 = -i m_b^3
        u_hat = s_bbb / (_I_CUBED * (m[b] ** 3))
        # S_pqr(m) = (i m_p)(i m_q)(i m_r) U^(m) = (i^3 U^(m)) m_p m_q m_r
        u_i_cubed = u_hat * _I_CUBED
        for p in range(dim):
            for q in range(p, dim):
                for r in range(q, dim):
                    want = u_i_cubed * (m[p] * m[q] * m[r])
                    if s.get((p, q, r)).coeff(m) != want:
                        raise NotExactCube(m, (p, q, r))
        if not u_hat.is_zero():
            u_coeffs[m] = u_hat
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


def recurrence_step(conn: ConnectionCurve, k):
    """One normalization step at order k.

    Returns (f_k, updated curve, psi step) where f_k = -U^(k) and the
    updated curve equals psi_{f_k}(t^k) . conn with invariant order-k term
    Q, the zero-mode part of conn.abar[k].  Preconditions: orders < k
    invariant, curve Ricci type.
    """
    if not 1 <= k <= conn.cap:
        raise PreconditionError("step order must lie in 1..K")
    for p in range(1, k):
        if not conn.abar[p].is_constant():
            raise PreconditionError(f"order {p} must already be invariant")
    bundle = curvature_bundle(conn)
    require_ricci_type(conn, bundle)
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
    for p in range(1, k):
        if updated.abar[p] != conn.abar[p]:
            raise InternalInconsistency(
                f"the order-{k} step modified the settled order {p}"
            )
    return f_k, updated, step


@dataclass
class NormalizationResult:
    flat_curve: StructureMapCurve
    witness: SymplectoCurve
    per_order_log: list


def normalize_curve(conn: ConnectionCurve) -> NormalizationResult:
    """Conjugate a Ricci-type curve to a flat invariant one.

    The witness is the composition of the per-order Hamiltonian steps,
    normal-ordered once: one n-factor `compose` of the steps, latest step
    outermost, after the last step.  witness . input = embedded flat curve is
    asserted exactly, as is flatness of the resulting invariant curve and,
    as a corollary, flatness of the input itself.  A curve that is not of
    Ricci type is refused by the order-1 step; a cap-0 curve is flat.

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
    the last curve is the steps' actions applied one by one.
    """
    sdata, cap = conn.sdata, conn.cap
    steps = []
    current = conn
    log = []
    for k in range(1, cap + 1):
        f_k, current, step = recurrence_step(current, k)
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
