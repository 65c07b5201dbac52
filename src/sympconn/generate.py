"""Seeded fixture generators.

Everything here is deterministic given a seed, and budgeted (few modes per
component, small mode norms, small denominators) so exact products stay
tractable.  These generators feed the property laws, the acceptance suite
and the `generate` CLI subcommand.
"""

from __future__ import annotations

import random

from .curvature import ConnectionCurve
from .errors import InputError
from .fourier import FourierScalar, SymplecticData, TensorField
from .invariant import StructureMapCurve, embed_invariant, rank_one_cube, zero_cube
from .moduli import require_valid
from .rationals import Fraction, GaussianRational
from .symplecto import SymplectoCurve, act_on_connection, compose


def _rng(seed) -> random.Random:
    return seed if isinstance(seed, random.Random) else random.Random(seed)


def random_real_scalar(rng, dim, max_modes=3, mode_bound=2, zero_mean=True):
    """A random real trigonometric polynomial with a small mode budget."""
    f = FourierScalar.zero(dim)
    for _ in range(rng.randint(1, max_modes)):
        m = tuple(rng.randint(-mode_bound, mode_bound) for _ in range(dim))
        if zero_mean and not any(m):
            continue
        amp = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        if not amp:
            continue
        if rng.random() < Fraction(1, 2):
            f = f + FourierScalar.cosine(dim, m, amp)
        else:
            f = f + FourierScalar.sine(dim, m, amp)
    return f


def random_symmetric_field(rng, dim, max_modes=3, mode_bound=2, triples=2):
    """A random real fully symmetric rank-3 tensor field."""
    comps = {}
    for _ in range(triples):
        idx = tuple(sorted(rng.randrange(dim) for _ in range(3)))
        f = random_real_scalar(rng, dim, max_modes, mode_bound, zero_mean=False)
        if f.is_zero():
            continue
        p, q, r = idx
        for perm in {(p, q, r), (p, r, q), (q, p, r), (q, r, p), (r, p, q), (r, q, p)}:
            comps[perm] = comps.get(perm, FourierScalar.zero(dim)) + f if perm in comps else f
    field = TensorField(dim, 3, {k: v for k, v in comps.items() if not v.is_zero()},
                        symmetry_tag="fully_symmetric", _validated=True)
    assert field.is_fully_symmetric() and field.is_real()
    return field


def random_connection_curve(seed, dim=4, cap=2, max_modes=3, mode_bound=2):
    """A random symplectic connection curve over the flat connection.

    No curvature condition is imposed; these exercise the universal identities
    (decomposition, Bianchi), not the Ricci-type theorems.
    """
    rng = _rng(seed)
    sdata = SymplecticData.standard(dim)
    abar = [TensorField.zero(dim, 3, "fully_symmetric")]
    abar += [random_symmetric_field(rng, dim, max_modes, mode_bound) for _ in range(cap)]
    return ConnectionCurve(sdata, cap, abar)


def omega_orthogonal_basis_vectors(sdata: SymplecticData):
    """The first n standard basis vectors: pairwise omega-orthogonal for the
    standard block form, so rank-one cubes built on them stack validly."""
    n = sdata.n
    return [
        tuple(Fraction(1) if i == a else Fraction(0) for i in range(sdata.dim))
        for a in range(n)
    ]


def rank_one_ladder(sdata: SymplecticData, cap, seed=0, scale_range=3):
    """A valid StructureMapCurve whose order-k cubes are rational multiples of
    rank-one cubes on pairwise omega-orthogonal basis vectors."""
    rng = _rng(seed)
    vecs = omega_orthogonal_basis_vectors(sdata)
    cubes = [zero_cube(sdata.dim)]
    for _ in range(cap):
        v = vecs[rng.randrange(len(vecs))]
        c = Fraction(rng.randint(-scale_range, scale_range))
        base = rank_one_cube(sdata, v)
        cubes.append(
            [[[c * x for x in row] for row in plane] for plane in base]
        )
    curve = StructureMapCurve(sdata, cap, cubes)
    require_valid(curve)
    return curve


def validated_sum_ladder(sdata: SymplecticData, cap, seed=0):
    """Sums of rank-one cubes on distinct omega-orthogonal vectors, validated."""
    rng = _rng(seed)
    vecs = omega_orthogonal_basis_vectors(sdata)
    cubes = [zero_cube(sdata.dim)]
    for _ in range(cap):
        cube = zero_cube(sdata.dim)
        for v in rng.sample(vecs, rng.randint(1, len(vecs))):
            c = Fraction(rng.randint(-2, 2))
            base = rank_one_cube(sdata, v)
            cube = [
                [[cube[a][b][d] + c * base[a][b][d] for d in range(sdata.dim)]
                 for b in range(sdata.dim)]
                for a in range(sdata.dim)
            ]
        cubes.append(cube)
    curve = StructureMapCurve(sdata, cap, cubes)
    require_valid(curve)
    return curve


def gradient_curve(sdata: SymplecticData, cap, f: FourierScalar, order=1):
    """The curve with A-bar at the given order equal to grad^3(f), zero else."""
    if not 1 <= order <= cap:
        raise InputError("gradient order must lie in 1..K")
    dim = sdata.dim
    g = TensorField(dim, 0, {(): f}, _validated=True).grad().grad().grad()
    g = TensorField(dim, 3, g.components, symmetry_tag="fully_symmetric", _validated=True)
    abar = [TensorField.zero(dim, 3, "fully_symmetric") for _ in range(cap + 1)]
    abar[order] = g
    return ConnectionCurve(sdata, cap, abar)


def hamiltonian_steps(sdata: SymplecticData, cap, scalars_with_orders):
    """The psi_{f}(t^k) steps of the (f, k) pairs composed in one `compose`,
    latest outermost; no pairs give the identity."""
    steps = [SymplectoCurve.from_hamiltonian(sdata, cap, f, k) for f, k in scalars_with_orders]
    return compose(*reversed(steps)) if steps else SymplectoCurve.identity(sdata, cap)


def conjugated_flat(sdata: SymplecticData, cap, flat: StructureMapCurve,
                    scalars_with_orders):
    """(psi, psi . embed(flat)): a Ricci-type, generically non-invariant curve
    together with the symplectomorphism that produced it."""
    psi = hamiltonian_steps(sdata, cap, scalars_with_orders)
    return psi, act_on_connection(psi, embed_invariant(flat))


def standard_step_scalars(dim, orders=(1, 2)):
    """The acceptance-corpus Hamiltonians: cos x^1 and sin(x^1 + x^2)."""
    m1 = tuple(1 if i == 0 else 0 for i in range(dim))
    m12 = tuple(1 if i < 2 else 0 for i in range(dim))
    pool = [FourierScalar.cosine(dim, m1), FourierScalar.sine(dim, m12)]
    return [(pool[i % 2], k) for i, k in enumerate(orders)]


def conjugated_flat_fixture(seed, dim=4, cap=3, orders=(1, 2)):
    """Seeded acceptance fixture: a rank-one flat ladder moved by Hamiltonian
    steps at the given orders with modes from {cos x^1, sin(x^1 + x^2)}."""
    rng = _rng(seed)
    sdata = SymplecticData.standard(dim)
    flat = rank_one_ladder(sdata, cap, seed=rng.randrange(2**30))
    scalars = [
        (f.scale(GaussianRational(Fraction(rng.randint(1, 2), rng.randint(1, 2)))), k)
        for f, k in standard_step_scalars(dim, orders)
    ]
    psi, moved = conjugated_flat(sdata, cap, flat, scalars)
    return flat, psi, moved
