import ast
import inspect
import json
import operator
from collections import Counter
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from sympconn import rationals as R
from sympconn.errors import ConfigurationError
from sympconn.euclidean import Poly, PolySymplecto, PolyVectorField
from sympconn.fourier import FourierScalar, SymplecticData, TensorField
from sympconn.invariant import StructureMapCurve, integral_cube, rank_one_cube, rank_one_entries
from sympconn.rationals import (
    GaussianRational,
    exact,
    gaussian_from_strs,
    rational_from_str,
    rational_to_str,
)
from sympconn.symplecto import FourierVectorField, SymplectoCurve

rationals = st.fractions(max_denominator=50)
gaussians = st.builds(GaussianRational, rationals, rationals)


@given(rationals)
def test_rational_string_round_trip(q):
    assert rational_from_str(rational_to_str(q)) == q


def test_rational_from_str_rejects_junk():
    for bad in ("", "1/0", "a/b", "1.5", "1/2/3"):
        with pytest.raises(ValueError):
            rational_from_str(bad)


@given(st.integers(-60, 60), st.integers(1, 60), st.integers(-60, 60), st.integers(1, 60))
def test_gaussian_from_strs_builds_the_canonical_triple(a, b, c, e):
    """Unreduced literals, signs and surrounding space give the value the
    two Fractions give, as a canonical triple."""
    z = gaussian_from_strs(f" {a}/{b}", f"{'+' if c >= 0 else ''}{c}/{e} ")
    assert z == GaussianRational(Fraction(a, b), Fraction(c, e))
    assert z.d > 0 and gcd(z.p, z.q, z.d) == 1
    assert gaussian_from_strs(str(a), str(c)) == GaussianRational(a, c)


def test_gaussian_from_strs_refuses_as_rational_from_str():
    for bad in ("", "1/0", "a/b", "1.5", "1/2/3"):
        with pytest.raises(ValueError) as want:
            rational_from_str(bad)
        for args in ((bad, "0"), ("0", bad)):
            with pytest.raises(ValueError) as got:
                gaussian_from_strs(*args)
            assert str(got.value) == str(want.value)


@given(gaussians, gaussians, gaussians)
def test_gaussian_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == GaussianRational(0)


@given(gaussians, gaussians)
def test_gaussian_conjugation_is_multiplicative(a, b):
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()


@given(gaussians)
def test_gaussian_division_inverts_multiplication(a):
    if not a.is_zero():
        assert (a * a) / a == a


def test_times_i():
    z = GaussianRational(Fraction(2), Fraction(3))
    assert z.times_i() == GaussianRational(Fraction(-3), Fraction(2))
    assert z.times_i().times_i() == -z


@given(gaussians)
def test_gaussian_json_round_trip(a):
    assert GaussianRational.from_json(a.to_json()) == a


# -- the fraction-free triple (p + i q) / d ----------------------------------------


def assert_canonical(z):
    assert type(z) is GaussianRational
    assert all(type(x) is int for x in (z.p, z.q, z.d))
    assert z.d > 0
    assert gcd(z.p, z.q, z.d) == 1  # zero is therefore (0, 0, 1)


@st.composite
def operands(draw):
    """A Gaussian rational, an int or a Fraction, with its (re, im) pair."""
    kind = draw(st.sampled_from(("gr", "int", "fraction")))
    if kind == "gr":
        re, im = draw(rationals), draw(rationals)
        return GaussianRational(re, im), (re, im)
    if kind == "int":
        k = draw(st.integers(-60, 60))
        return k, (Fraction(k), Fraction(0))
    q = draw(rationals)
    return q, (q, Fraction(0))


def ref_add(x, y):
    return x[0] + y[0], x[1] + y[1]


def ref_sub(x, y):
    return x[0] - y[0], x[1] - y[1]


def ref_mul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def ref_div(x, y):
    n = y[0] * y[0] + y[1] * y[1]
    return (x[0] * y[0] + x[1] * y[1]) / n, (x[1] * y[0] - x[0] * y[1]) / n


BINARY = (
    (operator.add, ref_add),
    (operator.sub, ref_sub),
    (operator.mul, ref_mul),
    (operator.truediv, ref_div),
)


@given(operands(), operands())
def test_arithmetic_matches_fraction_pairs(x, y):
    """+ - * / against pairs of Fractions, with GR x GR, GR x int,
    GR x Fraction, int x GR and Fraction x GR operands."""
    (a, ra), (b, rb) = x, y
    assume(isinstance(a, GaussianRational) or isinstance(b, GaussianRational))
    for op, ref in BINARY:
        if op is operator.truediv and rb == (0, 0):
            continue
        z = op(a, b)
        assert_canonical(z)
        assert (z.re, z.im) == ref(ra, rb)
        assert z == GaussianRational(*ref(ra, rb))


@given(rationals, rationals)
def test_unary_operations_match_fraction_pairs(re, im):
    z = GaussianRational(re, im)
    assert_canonical(z)
    for got, want in ((-z, (-re, -im)), (z.conjugate(), (re, -im)), (z.times_i(), (-im, re))):
        assert_canonical(got)
        assert (got.re, got.im) == want


@given(st.integers(-10**30, 10**30), st.integers(-10**30, 10**30), st.integers(1, 10**30))
def test_large_parts_are_reduced(p, q, d):
    z = GaussianRational(Fraction(p, d), Fraction(q, d))
    assert_canonical(z)
    assert_canonical(z * z - z / GaussianRational(1, 3))


def test_zero_is_stored_as_0_0_1():
    half = GaussianRational(Fraction(1, 2), Fraction(-1, 3))
    for z in (GaussianRational(0), GaussianRational(Fraction(0), Fraction(0)), half - half,
              half * 0, half * Fraction(0), 0 * half):
        assert (z.p, z.q, z.d) == (0, 0, 1)
        assert z.is_zero() and not z


@given(rationals, rationals)
def test_to_json_matches_the_fraction_form(re, im):
    z = GaussianRational(re, im)
    old = {"re": str(re), "im": str(im)}
    assert json.dumps(z.to_json()) == json.dumps(old)


@given(st.integers(-10**30, 10**30), st.integers(-10**30, 10**30), st.integers(1, 10**30),
       st.integers(1, 10**6))
def test_to_json_is_rational_to_str_of_the_parts(p, q, d, common):
    """Large parts, and a real part over a smaller denominator than the
    imaginary one, so that p shares a factor with the triple's d."""
    for z in (GaussianRational(Fraction(p, d), Fraction(q, d)),
              GaussianRational(Fraction(p, d), Fraction(q, d * common))):
        assert z.to_json() == {"re": rational_to_str(z.re), "im": rational_to_str(z.im)}


def test_to_json_literals():
    assert GaussianRational(Fraction(-3, 4), Fraction(1, 6)).to_json() == {"re": "-3/4", "im": "1/6"}
    assert GaussianRational(Fraction(10, 4), -2).to_json() == {"re": "5/2", "im": "-2"}
    assert GaussianRational(0).to_json() == {"re": "0", "im": "0"}


@given(gaussians, gaussians)
def test_equality_agrees_with_hash(a, b):
    assert hash(a) == hash((a.re, a.im))
    if not b.is_zero():
        c = (a * b) / b
        assert c == a and hash(c) == hash(a)
    if a == b:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("zero", [GaussianRational(0), 0, Fraction(0)])
def test_division_by_zero_raises(zero):
    with pytest.raises(ZeroDivisionError):
        GaussianRational(Fraction(1, 2), 3) / zero
    with pytest.raises(ZeroDivisionError):
        7 / GaussianRational(0)


def test_parts_are_read_only_fractions():
    z = GaussianRational(Fraction(-3, 4), Fraction(5, 6))
    assert (z.p, z.q, z.d) == (-9, 10, 12)
    assert isinstance(z.re, Fraction) and (z.re.numerator, z.re.denominator) == (-3, 4)
    assert isinstance(z.im, Fraction) and (z.im.numerator, z.im.denominator) == (5, 6)
    with pytest.raises(AttributeError):
        z.re = Fraction(1)


def test_add_and_mul_are_patchable_on_the_class(monkeypatch):
    """The benchmark's tracer counts Gaussian-rational ops by replacing
    GaussianRational.__dict__["__add__"] and ["__mul__"] with counting
    wrappers, and reads .re/.im numerators and denominators: both must be
    plain functions defined on the class, through which the kernels' + and
    * go."""
    counts = Counter()
    for name in ("__add__", "__mul__"):
        original = GaussianRational.__dict__[name]
        assert inspect.isfunction(original) and original.__name__ == name

        def wrapper(*args, original=original, name=name):
            counts[name] += 1
            return original(*args)

        monkeypatch.setattr(GaussianRational, name, wrapper)
    f = FourierScalar.cosine(4, (1, 0, 0, 0), Fraction(2, 3))
    g = f * f + f.scale(Fraction(1, 5))
    assert counts["__mul__"] >= 4 and counts["__add__"] >= 1
    monkeypatch.undo()
    assert g == f * f + f.scale(Fraction(1, 5))
    for c in g.coeffs.values():
        for part in (c.re, c.im):
            assert isinstance(part.numerator, int) and part.denominator > 0


# -- one object per value: the value and literal tables -----------------------------


BOUND = R._ENTRY_BOUND


def bounded(triple):
    return all(-BOUND < x < BOUND for x in triple)


@st.composite
def triples(draw):
    """A triple (p, q, d) with d > 0: signs, zeros, a shared factor, and
    entries near and past the entry bound 2^63."""
    part = st.one_of(st.integers(-60, 60), st.sampled_from((0, 1, -1)),
                     st.integers(-2**70, 2**70), st.sampled_from((BOUND - 1, BOUND, -BOUND)))
    p, q = draw(part), draw(part)
    d = draw(st.one_of(st.integers(1, 60), st.integers(1, 2**70), st.just(BOUND)))
    g = draw(st.one_of(st.just(1), st.integers(2, 12), st.just(2**40)))
    return p * g, q * g, d * g


@given(triples())
def test_reduced_hands_out_the_canonical_object_of_a_value(triple):
    """`_reduced` of any triple equals a fresh GaussianRational of its value
    and is canonical; every triple within the bound maps to that very object
    while the table has room, another triple of the value as well, and a
    triple with an entry past 2^63 is not entered."""
    R._values.clear()
    p, q, d = triple
    z = R._reduced(p, q, d)
    assert_canonical(z)
    assert z == GaussianRational(Fraction(p, d), Fraction(q, d))
    canonical = (z.p, z.q, z.d)
    for key in (triple, canonical):
        if bounded(key):
            assert R._values[key] is z
        else:
            assert key not in R._values
    if bounded(canonical):
        assert R._make(*canonical) is z
        assert R._reduced(3 * z.p, 3 * z.q, 3 * z.d) is z
        assert -z is R._make(-z.p, -z.q, z.d) and -(-z) is z
    else:
        assert R._make(*canonical) is not z and R._make(*canonical) == z
    assert all(bounded(key) for key in R._values)


def test_a_value_past_the_entry_bound_is_built_and_not_entered():
    R._values.clear()
    big = R._reduced(2 * BOUND, 0, 2)
    assert (big.p, big.q, big.d) == (BOUND, 0, 1) and R._values == {}
    assert R._reduced(BOUND - 1, 0, 1) is R._reduced(BOUND - 1, 0, 1)
    assert R._make(BOUND, 0, 1) is not big and R._make(BOUND, 0, 1) == big
    # a huge unreduced triple of a small value enters the small triple only
    third = R._reduced(BOUND, BOUND, 3 * BOUND)
    assert (third.p, third.q, third.d) == (1, 1, 3)
    assert set(R._values) == {(BOUND - 1, 0, 1), (1, 1, 3)}


def test_the_value_table_never_holds_more_than_its_limit():
    """Past the limit the table is cleared, never larger than the limit, and
    every value is still right, whether it was entered again or not."""
    R._values.clear()
    limit = R._TABLE_LIMIT
    seen = []
    for k in range(1, 2 * limit + 50):
        z = R._reduced(2 * k, 2 * k + 2, 4)  # (k + i (k + 1)) / 2, unreduced
        assert len(R._values) <= limit
        assert (z.p, z.q, z.d) == (k, k + 1, 2)
        seen.append(z)
    for k, z in enumerate(seen, 1):
        w = GaussianRational(Fraction(k, 2), Fraction(k + 1, 2)) * GaussianRational(1, 1)
        assert z * GaussianRational(1, 1) == w
        assert len(R._values) <= limit


def test_a_refused_literal_raises_on_every_call_and_is_not_entered():
    R._literals.clear()
    for _ in range(2):
        with pytest.raises(ValueError, match="bad rational literal '1.5'"):
            gaussian_from_strs("1.5", "0")
        with pytest.raises(ValueError, match="bad rational literal '1/0'"):
            gaussian_from_strs("0", "1/0")
    assert R._literals == {}


def test_a_long_literal_pair_is_parsed_and_not_entered():
    R._literals.clear()
    re_, im = "-" + "7" * 40 + "/3", "1/" + "9" * 30
    assert len(re_) + len(im) > R._LITERAL_LIMIT
    for _ in range(2):
        z = gaussian_from_strs(re_, im)
        assert z == GaussianRational(Fraction(-int("7" * 40), 3), Fraction(1, int("9" * 30)))
    assert R._literals == {}
    short = ("-" + "7" * 30 + "/3", "1/" + "9" * 29)
    assert len("".join(short)) == R._LITERAL_LIMIT
    assert gaussian_from_strs(*short) is R._literals[short]


@given(st.integers(-10**12, 10**12), st.integers(1, 10**12), st.integers(-10**12, 10**12),
       st.integers(1, 10**12), st.booleans())
def test_cached_and_uncached_parses_agree(a, b, c, e, spaced):
    """A literal pair parses to the same value whether the literal table or
    the value table holds it or not."""
    re_, im = (f" {a}/{b}", f"{c}/{e} ") if spaced else (f"{a}/{b}", f"{c}/{e}")
    want = GaussianRational(Fraction(a, b), Fraction(c, e))
    R._literals.clear()
    R._values.clear()
    cold = gaussian_from_strs(re_, im)
    warm = gaussian_from_strs(re_, im)
    assert cold == warm == want and warm is cold
    R._literals.clear()
    again = gaussian_from_strs(re_, im)
    assert again == want
    if bounded((a * e, c * b, b * e)):  # the parsed triple is in the value table
        assert again is cold
    R._values.clear()
    assert gaussian_from_strs(re_, im) == want


def test_no_module_but_rationals_stores_to_a_gaussian_rational():
    """Sharing one object per value rests on a value never changing in place:
    outside `rationals`, an attribute store to p, q or d is a store to
    `self` in a class that declares that slot (`SymplectoCurve.d`,
    `PolySymplecto.d`), and nothing calls setattr with those names."""
    package = Path(R.__file__).parent
    names = {"p", "q", "d"}
    allowed = []
    for path in sorted(package.rglob("*.py")):
        if path == package / "rationals.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                slots = set()
                for node in cls.body:
                    if isinstance(node, ast.Assign) and any(
                            isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets):
                        slots = set(ast.literal_eval(node.value))
                allowed += [node for node in ast.walk(cls)
                            if isinstance(node, ast.Attribute) and node.attr in slots
                            and isinstance(node.value, ast.Name) and node.value.id == "self"]
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store) \
                    and node.attr in names:
                assert node in allowed, f"{path.name}:{node.lineno} stores to .{node.attr}"
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)) \
                    and getattr(node.func, "id", getattr(node.func, "attr", None)) \
                    in ("setattr", "__setattr__"):
                assert not any(isinstance(a, ast.Constant) and a.value in names
                               for a in node.args), f"{path.name}:{node.lineno}"
    assert len([n for n in allowed if n.attr == "d" and isinstance(n.ctx, ast.Store)]) == 2


# -- the one gate for exact numbers ---------------------------------------------


def test_exact_passes_exact_numbers_and_names_what_it_refuses():
    for x in (0, -3, 2**80, Fraction(-2, 3), GaussianRational(1, 2)):
        assert exact(x, "entry") is x
    for bad, kind in ((0.1, "float"), (0.0, "float"), (True, "bool"), (False, "bool"),
                      ("1/2", "str"), (None, "NoneType"), (1j, "complex")):
        with pytest.raises(ConfigurationError, match=rf"^entry 7 is a {kind}, not a rational$"):
            exact(bad, "entry 7")


DIM = 4
SD = SymplecticData.standard(DIM)
OMEGA = [list(row) for row in SD.omega_lo]
EYE = [[int(i == j) for j in range(DIM)] for i in range(DIM)]


def with_entry(rows, i, j, x):
    rows = [list(row) for row in rows]
    rows[i][j] = x
    return rows


def cube_with(x):
    """The dim-4 cube with the entry x at every permutation of (0, 0, 2):
    fully symmetric, and rank one with square zero for x = 1."""
    cube = [[[0] * DIM for _ in range(DIM)] for _ in range(DIM)]
    for a, b, c in ((0, 0, 2), (0, 2, 0), (2, 0, 0)):
        cube[a][b][c] = x
    return cube


# (name, builder) pairs: each builder puts its argument where the constructor
# reads one number
NUMBER_DOORS = [
    ("GaussianRational re", lambda x: GaussianRational(x, 0)),
    ("GaussianRational im", lambda x: GaussianRational(Fraction(1, 2), x)),
    ("Poly coefficient", lambda x: Poly(DIM, {(1, 0, 0, 0): x})),
    ("Poly.constant", lambda x: Poly.constant(DIM, x)),
    ("FourierScalar coefficient", lambda x: FourierScalar(DIM, {(1, 0, 0, 0): x})),
    ("FourierScalar.constant", lambda x: FourierScalar.constant(DIM, x)),
    ("FourierScalar.single_mode", lambda x: FourierScalar.single_mode(DIM, (1, 0, 0, 0), x)),
    ("FourierScalar.cosine", lambda x: FourierScalar.cosine(DIM, (1, 0, 0, 0), x)),
    ("FourierScalar.cosine at 0", lambda x: FourierScalar.cosine(DIM, (0, 0, 0, 0), x)),
    ("FourierScalar.sine", lambda x: FourierScalar.sine(DIM, (1, 0, 0, 0), x)),
    ("FourierScalar.sine at 0", lambda x: FourierScalar.sine(DIM, (0, 0, 0, 0), x)),
    ("PolyVectorField.constant", lambda x: PolyVectorField.constant(DIM, [x, 0, 0, 0])),
    ("FourierVectorField.constant", lambda x: FourierVectorField.constant(DIM, [0, 0, x, 0])),
    ("rank_one_cube", lambda x: rank_one_cube(SD, (1, x, 0, 0))),
    ("rank_one_entries", lambda x: rank_one_entries(SD, (1, 0, 0, x))),
    ("integral_cube", lambda x: integral_cube(DIM, cube_with(x))),
    ("StructureMapCurve", lambda x: StructureMapCurve(SD, 1, [cube_with(0), cube_with(x)])),
    ("SymplecticData", lambda x: SymplecticData(with_entry(OMEGA, 0, 2, x))),
    ("SymplectoCurve translation", lambda x: SymplectoCurve.affine(SD, 1, EYE, [0, x, 0, 0])),
    ("SymplectoCurve linear part",
     lambda x: SymplectoCurve.affine(SD, 1, with_entry(EYE, 0, 0, x), [0] * DIM)),
    ("PolySymplecto translation",
     lambda x: PolySymplecto(SD, 1, EYE, [0, 0, 0, x], [PolyVectorField.zero(DIM)])),
    ("PolySymplecto linear part",
     lambda x: PolySymplecto(SD, 1, with_entry(EYE, 3, 3, x), [0] * DIM,
                             [PolyVectorField.zero(DIM)])),
]

# (name, builder) pairs: each builder puts its argument in a key or an index
KEY_DOORS = [
    ("Poly key", lambda x: Poly(DIM, {(x, 0, 0, 0): 1})),
    ("FourierScalar key", lambda x: FourierScalar(DIM, {(0, x, 0, 0): 1})),
    ("FourierScalar.cosine mode", lambda x: FourierScalar.cosine(DIM, (0, 0, x, 0))),
    ("FourierScalar.sine mode", lambda x: FourierScalar.sine(DIM, (0, 0, 0, x))),
    ("FourierScalar.single_mode", lambda x: FourierScalar.single_mode(DIM, (x, 1, 0, 0))),
    ("TensorField index", lambda x: TensorField(DIM, 1, {(x,): FourierScalar.constant(DIM, 1)})),
    ("Poly.variable", lambda x: Poly.variable(DIM, x)),
]


@pytest.mark.parametrize("name, build", NUMBER_DOORS, ids=[n for n, _ in NUMBER_DOORS])
def test_every_public_constructor_refuses_a_float_or_a_bool(name, build):
    """Each door that reads a number refuses a float or a bool, zero or not,
    with a configuration error that names the entry; the int 1 builds.  A
    non-integral linear part is refused as such before the gate."""
    build(1)
    for bad in (1.0, 0.0, True, False):
        with pytest.raises(ConfigurationError, match=rf" is a {type(bad).__name__}, not a rational$"):
            build(bad)
    with pytest.raises(ConfigurationError):
        build(0.5)


@pytest.mark.parametrize("name, build", KEY_DOORS, ids=[n for n, _ in KEY_DOORS])
def test_every_public_constructor_refuses_a_key_entry_that_is_not_an_int(name, build):
    """A non-integer, float or bool key entry is refused, not truncated: the
    key (1.5, 0, 0, 0) used to become (1, 0, 0, 0)."""
    build(1)
    for bad in (1.5, 1.0, Fraction(3, 2), True):
        with pytest.raises(ConfigurationError):
            build(bad)
