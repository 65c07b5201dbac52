import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympconn.errors import ConfigurationError
from sympconn.fourier import (
    FourierScalar,
    SymplecticData,
    TensorField,
    lower_last,
    raise_last,
)
from sympconn.generate import random_connection_curve, random_real_scalar, random_symmetric_field
from sympconn.linalg import inverse, matrix, transpose
from sympconn.moduli import _words_up_to, sp_generators
from sympconn.rationals import GaussianRational

from references import is_curvature_type

DIM = 4

modes = st.tuples(*[st.integers(-2, 2)] * DIM)
amps = st.fractions(max_denominator=6)


@st.composite
def real_scalars(draw):
    f = FourierScalar.zero(DIM)
    for _ in range(draw(st.integers(0, 3))):
        m = draw(modes)
        a = draw(amps)
        f = f + (FourierScalar.cosine(DIM, m, a) if draw(st.booleans())
                 else FourierScalar.sine(DIM, m, a))
    return f


@settings(max_examples=40)
@given(real_scalars(), real_scalars(), real_scalars())
def test_scalar_ring_axioms(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f + (-f) == FourierScalar.zero(DIM)


@settings(max_examples=40)
@given(real_scalars(), real_scalars())
def test_derivative_is_a_derivation(f, g):
    for a in range(DIM):
        assert (f * g).derivative(a) == f.derivative(a) * g + f * g.derivative(a)


@settings(max_examples=40)
@given(real_scalars())
def test_reality_is_preserved(f):
    assert f.is_real()
    assert (f * f).is_real()
    assert f.derivative(0).is_real()
    assert f.conjugate() == f


@settings(max_examples=60)
@given(real_scalars(), st.lists(st.tuples(modes, st.integers(-2, 2), st.integers(-2, 2),
                                          st.integers(1, 3)), max_size=2))
def test_is_real_is_the_comparison_with_the_built_conjugate(f, extra):
    """The triple comparison agrees with c(-m) == conj c(m) on real scalars
    and on scalars with a coefficient set at a mode, its partner or both."""
    coeffs = dict(f.coeffs)
    for m, p, q, d in extra:
        coeffs[m] = GaussianRational(Fraction(p, d), Fraction(q, d))
    g = FourierScalar(DIM, coeffs)
    want = all(g.coeffs.get(tuple(-x for x in m)) == c.conjugate() for m, c in g.coeffs.items())
    assert g.is_real() == want


def test_field_reality_tests_each_distinct_scalar_once(monkeypatch):
    """A generated symmetric field shares one scalar across each orbit, so
    is_real tests one scalar per orbit; a non-real copy is still found."""
    rng = random.Random(5)
    field = random_symmetric_field(rng, DIM, triples=3)
    calls = []
    real = FourierScalar.is_real

    def counting(f):
        calls.append(f)
        return real(f)

    monkeypatch.setattr(FourierScalar, "is_real", counting)
    assert field.is_real()
    distinct = {id(f) for f in field.components.values()}
    assert len(calls) == len(distinct) < len(field.components)
    idx = max(field.components)
    bent = dict(field.components)
    bent[idx] = bent[idx] + FourierScalar.single_mode(DIM, (1, 0, 0, 0))
    assert not TensorField(DIM, 3, bent).is_real()


def test_zero_mode_cosine_and_sine():
    zero = (0,) * DIM
    assert FourierScalar.cosine(DIM, zero, Fraction(3, 2)) == FourierScalar.constant(
        DIM, Fraction(3, 2)
    )
    assert FourierScalar.sine(DIM, zero, Fraction(3, 2)).is_zero()


@pytest.mark.parametrize(
    "seed, constant",
    [(65, Fraction(0)), (412, Fraction(3, 4))],  # draw sin(0.x) and (3/4) cos(0.x)
)
def test_random_symmetric_field_with_zero_mode_is_real(seed, constant):
    field = random_symmetric_field(random.Random(seed), DIM)
    assert field.is_real() and field.is_fully_symmetric()
    assert field.get((0, 1, 2)).constant_part() == GaussianRational(constant)


def test_the_standard_omega_is_one_object_per_dim():
    """`standard` builds omega once per dim; a refused dim raises each time."""
    assert SymplecticData.standard(4) is SymplecticData.standard(4)
    assert SymplecticData.standard(6) is not SymplecticData.standard(4)
    assert SymplecticData.standard(4).is_standard()
    for _ in range(2):
        for dim in (2, 5):
            with pytest.raises(ConfigurationError, match="even and >= 4"):
                SymplecticData.standard(dim)


def test_random_connection_curve_checks_each_order_once(monkeypatch):
    """The generator asserts each order fully symmetric and real, and the
    curve is built without checking them again."""
    calls = []
    original = TensorField.is_fully_symmetric

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(TensorField, "is_fully_symmetric", counting)
    conn = random_connection_curve(5, dim=DIM, cap=3)
    assert calls == conn.abar[1:]


def test_partials_commute():
    f = FourierScalar.cosine(DIM, (1, 2, 0, -1)) + FourierScalar.sine(DIM, (0, 1, 1, 0))
    for a in range(DIM):
        for b in range(DIM):
            assert f.derivative(a).derivative(b) == f.derivative(b).derivative(a)


def test_standard_omega_shape():
    sd = SymplecticData.standard(DIM)
    n = DIM // 2
    for i in range(n):
        assert sd.omega_lo[i][n + i] == 1
        assert sd.omega_lo[n + i][i] == -1
    assert sd.is_standard()


def test_omega_inverse_is_computed_once_per_omega_and_bad_omegas_are_always_refused():
    """omega^{-1} is shared by every SymplecticData of one omega, and a
    refused omega is refused again on every call, not served from a cache."""
    assert SymplecticData.standard(DIM).omega_hi is SymplecticData.standard(DIM).omega_hi
    singular = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    symmetric = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    for _ in range(3):
        with pytest.raises(ConfigurationError, match="singular matrix"):
            SymplecticData(singular)
        with pytest.raises(ConfigurationError, match="omega must be antisymmetric"):
            SymplecticData(symmetric)
    assert SymplecticData.standard(DIM).omega_hi == inverse(SymplecticData.standard(DIM).omega_lo)


def test_raise_lower_are_inverse():
    sd = SymplecticData.standard(DIM)
    f = FourierScalar.cosine(DIM, (1, 0, 1, 0))
    comps = {}
    for idx in {(0, 0, 1), (0, 1, 0), (1, 0, 0)}:
        comps[idx] = f
    t = TensorField(DIM, 3, comps, _validated=True)
    assert lower_last(raise_last(t, sd), sd) == t


# the standard omega, 2 omega (monomial, weights 2 and 1/2), an integral
# omega with one entry in rows 0 and 3 and two in rows 1 and 2, and a
# non-monomial rational omega (1/2) P^T omega P for a unimodular P
_P = ((1, 2, 0, 1), (0, 1, 1, 0), (0, 0, 1, 3), (0, 0, 0, 1))
_STANDARD = SymplecticData.standard(DIM)
INDEX_MAP_OMEGAS = {
    "standard": (_STANDARD, True),
    "doubled": (SymplecticData([[2 * x for x in row] for row in _STANDARD.omega_lo]), True),
    "mixed": (SymplecticData([[0, 1, 0, 0], [-1, 0, 1, 0], [0, -1, 0, 1], [0, 0, -1, 0]]), False),
    "rational": (SymplecticData([
        [Fraction(sum(_P[k][i] * _STANDARD.omega_lo[k][l] * _P[l][j]
                      for k in range(DIM) for l in range(DIM)), 2) for j in range(DIM)]
        for i in range(DIM)]), False),
}


def reference_map_last(t, w):
    """sum_c w[c][p] T_{..c} at every (.., p), summed as scalars."""
    comps = {}
    for idx, f in t.components.items():
        for p, x in enumerate(w[idx[-1]]):
            if x:
                key = idx[:-1] + (p,)
                comps[key] = comps.get(key, FourierScalar.zero(t.dim)) + f.scale(x)
    return TensorField(t.dim, t.rank, {k: f for k, f in comps.items() if f}, _validated=True)


@pytest.mark.parametrize("name", sorted(INDEX_MAP_OMEGAS))
def test_index_maps_equal_the_accumulator_and_the_scalar_sums(name):
    """raise_last and lower_last on random symmetric 3-tensors against the
    accumulator path of `_map_last` and against plain scalar sums, under a
    standard, a monomial non-unit and a non-monomial omega; a monomial map
    shares a scalar at weight 1."""
    from sympconn import fourier

    sd, monomial = INDEX_MAP_OMEGAS[name]
    assert sd.index_map(True)[1] == sd.index_map(False)[1] == monomial
    rng = random.Random(f"index-maps-{name}")
    shared = 0
    for _ in range(6):
        t = random_symmetric_field(rng, DIM, triples=3)
        for upper, w, move in ((True, sd.omega_hi, raise_last), (False, sd.omega_lo, lower_last)):
            got = move(t, sd)
            rows, _ = sd.index_map(upper)
            assert got == fourier._map_last(t, rows, False) == reference_map_last(t, w)
            assert lower_last(raise_last(t, sd), sd) == t
            for idx, f in t.components.items():
                p, x = rows[idx[-1]][0]
                if monomial and x == 1:
                    assert got.components[idx[:-1] + (p,)] is f
                    shared += 1
    assert bool(shared) == (name == "standard")


def test_mixed_tensor_is_trace_free():
    """omega-raising the last slot of a symmetric 3-tensor yields a
    trace-free endomorphism-valued 1-form: sum_p A^p_{pb} = 0."""
    sd = SymplecticData.standard(DIM)
    f = FourierScalar.cosine(DIM, (1, 1, 0, 0))
    comps = {}
    for idx in {(0, 0, 1), (0, 1, 0), (1, 0, 0)}:
        comps[idx] = f
    mixed = raise_last(TensorField(DIM, 3, comps, _validated=True), sd)
    for b in range(DIM):
        acc = FourierScalar.zero(DIM)
        for p in range(DIM):
            g = mixed.get((p, b, p))
            acc = acc + g
        assert acc.is_zero()


def test_dimension_mismatch_rejected():
    f = FourierScalar.cosine(4, (1, 0, 0, 0))
    g = FourierScalar.cosine(6, (1, 0, 0, 0, 0, 0))
    with pytest.raises(ConfigurationError):
        f + g


def test_scale_by_gaussian():
    f = FourierScalar.single_mode(DIM, (1, 0, 0, 0))
    i = GaussianRational(0, 1)
    assert f.scale(i).coeff((1, 0, 0, 0)) == i


def test_subtraction_matches_adding_the_negation_key_for_key():
    """FourierScalar, TensorField and vector-field subtraction build no
    negated copy but keep the keys of s + (-t) in the same order."""
    from sympconn.symplecto import FourierVectorField

    rng = random.Random(7)
    for _ in range(5):
        s = random_symmetric_field(rng, 4, triples=3)
        t = random_symmetric_field(rng, 4, triples=3)
        t = t + TensorField(4, 3, dict(list(s.components.items())[:3]), _validated=True)
        diff, want = s - t, s + (-t)
        assert list(diff.components) == list(want.components)
        for idx, f in diff.components.items():
            assert list(f.coeffs.items()) == list(want.components[idx].coeffs.items())
        assert diff.symmetry_tag == want.symmetry_tag
        x = FourierVectorField([s.get((0, 0, i)) for i in range(4)])
        y = FourierVectorField([t.get((0, 0, i)) for i in range(4)])
        assert x - y == x + (-y)
        assert (x - x).is_zero()


def test_symmetry_witness_drives_both_predicates():
    """The witness is the first broken entry in sorted order; the predicates
    read it, and 'curvature_type' is refused for a rank other than 4."""
    field = random_symmetric_field(random.Random(5), DIM, triples=3)
    assert field.symmetry_witness("fully_symmetric") is None and field.is_fully_symmetric()
    idx = max(i for i in field.components if len(set(i)) > 1)
    comps = dict(field.components)
    comps[idx] = comps[idx].scale(3)
    broken = TensorField(DIM, 3, comps, _validated=True)
    witness = broken.symmetry_witness("fully_symmetric")
    assert witness[0] == min(i for i in comps if sorted(i) == sorted(idx))
    assert broken.get(witness[0]) != broken.get(witness[1])
    assert not broken.is_fully_symmetric()
    assert broken.symmetry_witness("none") is None
    with pytest.raises(ConfigurationError, match="needs rank 4, got rank 3"):
        field.symmetry_witness("curvature_type")
    assert not is_curvature_type(field)


# -- the symplectic group of omega -----------------------------------------------


def mat_mul(a, b):
    """The dense matrix product, as a test-only reference."""
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


def dense_is_symplectic(sdata, c):
    """The dense reference C^T omega C = omega, over ints where omega is."""
    omega = tuple(tuple(int(x) if x.denominator == 1 else x for x in row)
                  for row in sdata.omega_lo)
    return mat_mul(mat_mul(transpose(c), omega), c) == omega


def one_entry_changes(c, deltas=(1, -1)):
    """C with one entry moved by one of the deltas, for every entry."""
    for i, row in enumerate(c):
        for j in range(len(row)):
            for delta in deltas:
                m = [list(r) for r in c]
                m[i][j] += delta
                yield tuple(tuple(r) for r in m)


# P is unimodular, so omega' = (1/2) P^T omega P is a non-standard rational
# omega whose symplectic group P^{-1} Sp(omega) P is again integral.
P = ((1, 2, 0, 1), (0, 1, 1, 0), (0, 0, 1, 3), (0, 0, 0, 1))
P_INV = tuple(tuple(int(x) for x in row) for row in inverse(matrix(P)))
SD_RATIONAL = SymplecticData(
    [[x / 2 for x in row] for row in mat_mul(mat_mul(transpose(matrix(P)),
                                                     SymplecticData.standard(DIM).omega_lo),
                                             matrix(P))]
)


def sp_words(sdata):
    """The generator words of length <= 2, moved into sdata's group."""
    words = _words_up_to(sp_generators(SymplecticData.standard(DIM)), DIM, 2)
    if sdata.is_standard():
        return list(words)
    return [mat_mul(mat_mul(P_INV, w), P) for w in words]


@pytest.mark.parametrize("sdata", [SymplecticData.standard(DIM), SD_RATIONAL],
                         ids=["standard", "rational"])
def test_sparse_check_agrees_with_the_dense_reference(sdata):
    """On every word of length <= 2 and every one-entry +-1 change of one;
    the changes include symplectic matrices (a diagonal entry of a
    transvection's B) as well as non-symplectic ones."""
    if not sdata.is_standard():
        assert any(x.denominator != 1 for row in sdata.omega_lo for x in row)
    verdicts = set()
    for word in sp_words(sdata):
        assert sdata.is_symplectic_matrix(word)
        for c in one_entry_changes(word):
            verdict = sdata.is_symplectic_matrix(c)
            assert verdict == dense_is_symplectic(sdata, c), c
            verdicts.add(verdict)
    assert verdicts == {True, False}


def test_sparse_check_accepts_a_rational_stabilizer_matrix():
    """The R^(2n) stabilizer's C need not be integral: diag(A, A^{-T}) and
    [[I, B], [0, I]] with rational A and symmetric B, their product, and
    every one-entry change of those by +-1 or +-1/2."""
    sd = SymplecticData.standard(DIM)
    half, third = Fraction(1, 2), Fraction(1, 3)
    a = ((2, third), (0, half))
    a_inv_t = transpose(inverse(matrix(a)))
    diag = tuple(tuple(x) for x in ((*a[0], 0, 0), (*a[1], 0, 0),
                                    (0, 0, *a_inv_t[0]), (0, 0, *a_inv_t[1])))
    shear = ((1, 0, half, third), (0, 1, third, -2), (0, 0, 1, 0), (0, 0, 0, 1))
    verdicts = set()
    for c in (diag, shear, mat_mul(diag, shear)):
        assert sd.is_symplectic_matrix(c) and dense_is_symplectic(sd, c)
        for m in one_entry_changes(c, (1, -1, half, -half)):
            verdict = sd.is_symplectic_matrix(m)
            assert verdict == dense_is_symplectic(sd, m), m
            verdicts.add(verdict)
    assert verdicts == {True, False}


@pytest.mark.parametrize("sdata", [SymplecticData.standard(DIM), SD_RATIONAL],
                         ids=["standard", "rational"])
def test_symplectic_inverse_is_the_gauss_jordan_inverse(sdata):
    for word in sp_words(sdata):
        c_inv = sdata.symplectic_inverse(word)
        assert c_inv == inverse(matrix(word))
        assert all(type(x) is int for row in c_inv for x in row)


def test_sparse_check_refuses_a_matrix_of_the_wrong_shape():
    """A dense product would zip the extra entry of a long row away."""
    sd = SymplecticData.standard(DIM)
    eye = [[int(i == j) for j in range(DIM)] for i in range(DIM)]
    assert sd.is_symplectic_matrix(eye)
    assert not sd.is_symplectic_matrix([eye[0] + [0]] + eye[1:])
    assert not sd.is_symplectic_matrix(eye[:-1])
    assert not sd.is_symplectic_matrix([row[:-1] for row in eye])


def old_symmetry_witness(t, kind):
    """Reference: the routine that compares every pair from both sides."""
    from itertools import permutations

    if kind == "fully_symmetric":
        for idx in sorted(t.components):
            f = t.components[idx]
            for perm in permutations(idx):
                if t.get(perm) != f:
                    return idx, perm
    elif kind == "curvature_type":
        if t.rank != 4:
            raise ConfigurationError(
                f"symmetry 'curvature_type' needs rank 4, got rank {t.rank}"
            )
        for idx in sorted(t.components):
            a, b, c, d = idx
            f = t.components[idx]
            if t.get((b, a, c, d)) != -f:
                return idx, (b, a, c, d)
            if t.get((a, b, d, c)) != f:
                return idx, (a, b, d, c)
    return None


def _small_scalar(rng):
    f = FourierScalar.constant(DIM, Fraction(rng.randint(1, 3), rng.randint(1, 2)))
    if rng.random() < 0.5:
        f = f + FourierScalar.cosine(DIM, (rng.randint(-1, 1), 1, 0, 0))
    return f


def _symmetric_rank4(rng):
    """A random field with T_bacd = -T_abcd and T_abdc = T_abcd."""
    comps = {}
    for _ in range(rng.randint(1, 4)):
        a, b = sorted(rng.sample(range(DIM), 2))
        c, d = sorted(rng.randrange(DIM) for _ in range(2))
        f = _small_scalar(rng)
        comps[(a, b, c, d)] = comps[(a, b, d, c)] = f
        comps[(b, a, c, d)] = comps[(b, a, d, c)] = -f
    return comps


def _perturb(rng, comps, rank):
    """Delete, rescale, negate or add a few entries, or none."""
    comps = dict(comps)
    for _ in range(rng.choice((0, 1, 1, 2, 3))):
        keys = sorted(comps)
        move = rng.randrange(4)
        if move == 0 and keys:
            del comps[rng.choice(keys)]
        elif move == 1 and keys:
            k = rng.choice(keys)
            comps[k] = comps[k].scale(rng.choice((2, 3, Fraction(1, 2))))
        elif move == 2 and keys:
            k = rng.choice(keys)
            comps[k] = -comps[k]
        else:
            idx = tuple(rng.randrange(DIM) for _ in range(rank))
            comps[idx] = _small_scalar(rng)
    return TensorField(DIM, rank, comps, _validated=True)


def test_symmetry_witness_matches_the_two_sided_reference():
    """Comparing each pair once returns the witness of comparing every pair
    from both sides, on perturbed rank-3 and rank-4 tensors, for every kind
    (including the rank error of 'curvature_type' on rank 3)."""
    rng = random.Random(2024)
    found = set()
    for trial in range(1500):
        if trial % 2:
            t = _perturb(rng, random_symmetric_field(rng, DIM, triples=3).components, 3)
        else:
            t = _perturb(rng, _symmetric_rank4(rng), 4)
        for kind in ("fully_symmetric", "curvature_type", "none"):
            try:
                want = old_symmetry_witness(t, kind)
            except ConfigurationError as exc:
                with pytest.raises(ConfigurationError, match=str(exc)):
                    t.symmetry_witness(kind)
                continue
            got = t.symmetry_witness(kind)
            assert got == want, (kind, t.components)
            found.add((t.rank, kind, want is None))
    # both verdicts were met for each rank and declared symmetry
    for rank in (3, 4):
        assert {(rank, "fully_symmetric", True), (rank, "fully_symmetric", False)} <= found
    assert {(4, "curvature_type", True), (4, "curvature_type", False)} <= found


def test_curvature_type_catches_a_nonzero_diagonal_pair():
    """T_aacd must vanish: its (b, a) partner is itself and is compared."""
    t = TensorField(DIM, 4, {(1, 1, 0, 2): FourierScalar.constant(DIM, 1),
                             (1, 1, 2, 0): FourierScalar.constant(DIM, 1)}, _validated=True)
    assert t.symmetry_witness("curvature_type") == ((1, 1, 0, 2), (1, 1, 0, 2))


@pytest.mark.parametrize("dim", [4, 6])
@pytest.mark.parametrize("zero_mean", [True, False])
def test_random_real_scalar_equals_the_fraction_reference(dim, zero_mean):
    """The canonical triples drawn directly equal the Fraction amplitudes
    through `cosine` and `sine`, for seeds 0-99, and leave the random
    stream where the reference leaves it.  Mode bound 0 draws only the zero
    mode, where a cosine is a constant and a sine is 0."""
    from references import random_real_scalar_by_fractions

    for seed in range(100):
        rng, ref = random.Random(seed), random.Random(seed)
        for bound in (2, 0, 1):
            got = random_real_scalar(rng, dim, mode_bound=bound, zero_mean=zero_mean)
            want = random_real_scalar_by_fractions(ref, dim, mode_bound=bound,
                                                   zero_mean=zero_mean)
            assert got == want, seed
            assert got.is_real()
        assert rng.getstate() == ref.getstate()
