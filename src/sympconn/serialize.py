"""One JSON file format for every curve kind, discriminated by "kind".

All numbers are exact rational strings "p/q" (Gaussian rationals as
{"re", "im"}).  Tensor indices are 1-based in files and 0-based in memory.
Output ordering is canonical (entries sorted by index then mode), so equal
objects serialize to identical bytes.

Kinds: "connection_curve", "structure_map_curve", "symplecto_curve",
"normalization_result".

Every curve file is written by one emitter, `json_text`, and read by
`loads`, which checks each order of a curve once.  `dumps` hands
`json_text` each `FourierScalar` as a leaf, whose mode list it writes
straight to text, once per scalar object and depth in a call: the keys of
an index orbit share one scalar in generated and loaded curves.  It hands
each stored cube order (den, entries) of a structure map as a leaf too,
whose dim^3 texts it writes with joins, not as nested lists.  `loads`
parses a mode list once per orbit of a fully symmetric order; an entry
whose raw mode list equals the first one read in its orbit, and holds no
bool or float leaf, shares that entry's scalar.
"""

from __future__ import annotations

import json
from functools import lru_cache
from json.encoder import encode_basestring_ascii

from .curvature import ConnectionCurve
from .errors import ConfigurationError, InputError
from .fourier import FourierScalar, SymplecticData, TensorField
from .invariant import StructureMapCurve, integral_form
from .normalization import NormalizationResult
from .rationals import _ratio_to_str, gaussian_from_strs, rational_from_str, rational_to_str
from .symplecto import FourierVectorField, SymplectoCurve

FORMAT_VERSION = 1


def _fail(msg):
    raise InputError(msg)


_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", int: "an integer",
               float: "a number", bool: "a boolean", type(None): "null"}


def _expect(obj, key, context, expected=None):
    """obj[key] of a JSON object obj; with `expected`, a value of that type."""
    if not isinstance(obj, dict) or key not in obj:
        _fail(f"{context}: missing field {key!r}")
    value = obj[key]
    if expected is not None and not isinstance(value, expected):
        got = _JSON_TYPES.get(type(value), type(value).__name__)
        _fail(f"{context}: field {key!r} must be {_JSON_TYPES[expected]}, got {got}")
    return value


def _parse_rational(s, context):
    try:
        return rational_from_str(str(s))
    except ValueError as exc:
        _fail(f"{context}: {exc}")


def _parse_gaussian(obj, context):
    if not isinstance(obj, dict) or set(obj) != {"re", "im"}:
        _fail(f"{context}: Gaussian rational must be {{re, im}}")
    try:
        return gaussian_from_strs(str(obj["re"]), str(obj["im"]))
    except ValueError as exc:
        _fail(f"{context}: {exc}")


def _is_int(x):
    """A JSON integer; JSON booleans are Python bools, which are not."""
    return type(x) is int


def _header(obj, kind):
    """The (dim, cap) of a curve file: an even int dim >= 4 and an int cap >= 0."""
    dim = _expect(obj, "dim", kind)
    cap = _expect(obj, "cap", kind)
    if not _is_int(dim) or dim < 4 or dim % 2:
        _fail(f"{kind}: dim must be an even integer >= 4, got {dim!r}")
    if not _is_int(cap) or cap < 0:
        _fail(f"{kind}: bad cap {cap!r}")
    return dim, cap


# -- omega ----------------------------------------------------------------------


def omega_to_json(sdata: SymplecticData):
    return [[rational_to_str(x) for x in row] for row in sdata.omega_lo]


def omega_from_json(obj, dim, context="omega"):
    if not isinstance(obj, list) or len(obj) != dim:
        _fail(f"{context}: expected a {dim}x{dim} matrix")
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != dim:
            _fail(f"{context}: row {i + 1} has wrong length")
    return _omega_from_texts(tuple(tuple(map(str, row)) for row in obj), context)


@lru_cache(maxsize=16)
def _omega_from_texts(texts, context):
    """The SymplecticData of the entry texts `_parse_rational` reads, one
    per distinct omega while it is among the 16 last used.  A refused omega
    raises, and a raised call is never cached, so it is refused on every
    call."""
    rows = [tuple(_parse_rational(x, f"{context}[{i + 1}]") for x in row)
            for i, row in enumerate(texts)]
    try:
        return SymplecticData(tuple(rows))
    except Exception as exc:
        _fail(f"{context}: {exc}")


# -- scalars and tensors ----------------------------------------------------------


def scalar_to_json(f: FourierScalar):
    return [
        {"m": list(m), "c": f.coeffs[m].to_json()} for m in sorted(f.coeffs)
    ]


def _scalar_text(f: FourierScalar, nl):
    """The `json_text` of `scalar_to_json(f)` whose line breaks are followed
    by nl, written from the mode list without building it."""
    if not f.coeffs:
        return "[]"
    i1 = nl + " "
    i2 = i1 + " "
    i3 = i2 + " "
    head = i1 + "{" + i2 + '"m": [' + i3
    sep = "," + i3
    re_ = i2 + "]," + i2 + '"c": {' + i3 + '"re": "'
    im_ = '",' + i3 + '"im": "'
    tail = '"' + i2 + "}" + i1 + "}"
    return "[" + ",".join(
        head + sep.join(map(str, m)) + re_ + _ratio_to_str(c.p, c.d) + im_
        + _ratio_to_str(c.q, c.d) + tail
        for m, c in sorted(f.coeffs.items())
    ) + nl + "]"


def _scalar_leaf(f: FourierScalar):
    """The scalar itself, a leaf that `json_text` writes as its mode list."""
    return f


def scalar_from_json(obj, dim, context):
    if not isinstance(obj, list):
        _fail(f"{context}: expected a mode list")
    coeffs = {}
    seen = set()
    for i, entry in enumerate(obj):
        where = f"{context} mode {i + 1}"
        m = _expect(entry, "m", where)
        if not isinstance(m, list) or len(m) != dim or not all(_is_int(x) for x in m):
            _fail(f"{where}: bad mode vector")
        m = tuple(m)
        if m in seen:
            _fail(f"{context}: duplicate mode {m}")
        seen.add(m)
        c = _parse_gaussian(_expect(entry, "c", where), where)
        if not c.is_zero():
            coeffs[m] = c
    return FourierScalar(dim, coeffs, _validated=True)


def _no_bool_or_float(modes):
    """True only when no leaf of the raw mode list is a bool or a float.
    Python's == equates True, 1.0 and 1, which the parser tells apart, so
    two raw mode lists that are == parse alike when this holds.  It is
    False also for a shape no written file has: a mode that is not an
    object, a list of other than ints or an object of other than strings
    inside a mode."""
    for mode in modes:
        if type(mode) is not dict:
            return False
        for v in mode.values():
            t = type(v)
            if t is list:
                for x in v:
                    if type(x) is not int:
                        return False
            elif t is dict:
                for x in v.values():
                    if type(x) is not str:
                        return False
            elif t is bool or t is float:
                return False
    return True


def tensor_to_json(t: TensorField, scalar=scalar_to_json):
    """The JSON tree of a tensor field, each nonzero scalar written by
    `scalar`."""
    comps = t.components
    return {"rank": t.rank, "symmetry": t.symmetry_tag, "entries": [
        {"idx": [a + 1 for a in idx], "modes": scalar(comps[idx])}
        for idx in sorted(comps) if not comps[idx].is_zero()
    ]}


def tensor_from_json(obj, dim, context, expect_rank=None, expect_symmetry=None):
    rank = _expect(obj, "rank", context)
    tag = _expect(obj, "symmetry", context)
    if expect_rank is not None and rank != expect_rank:
        _fail(f"{context}: rank {rank}, expected {expect_rank}")
    if expect_symmetry is not None and tag != expect_symmetry:
        _fail(f"{context}: symmetry {tag!r}, expected {expect_symmetry!r}")
    # the first (raw mode list, scalar) read in each index orbit of a fully
    # symmetric order, keyed by the sorted index
    orbits = {} if tag == "fully_symmetric" else None
    comps = {}
    seen = set()
    for i, entry in enumerate(_expect(obj, "entries", context, list)):
        where = f"{context} entry {i + 1}"
        idx = _expect(entry, "idx", where)
        if (
            not isinstance(idx, list)
            or len(idx) != rank
            or not all(_is_int(a) and 1 <= a <= dim for a in idx)
        ):
            _fail(f"{where}: bad index {idx!r} (1-based, rank {rank})")
        key = tuple(a - 1 for a in idx)
        if key in seen:
            _fail(f"{context}: duplicate index {idx}")
        seen.add(key)
        modes = _expect(entry, "modes", where)
        if orbits is None:
            f = scalar_from_json(modes, dim, where)
        else:
            orbit = tuple(sorted(key))
            first = orbits.get(orbit)
            if first is not None and modes == first[0] and _no_bool_or_float(modes):
                f = first[1]
            else:
                f = scalar_from_json(modes, dim, where)
                if first is None:
                    orbits[orbit] = modes, f
        if not f.is_zero():
            comps[key] = f
    t = TensorField(dim, rank, comps, symmetry_tag=tag, _validated=True)
    try:
        witness = t.symmetry_witness(tag)
    except ConfigurationError as exc:
        _fail(f"{context}: {exc}")
    if witness is not None:
        idx, perm = witness
        _fail(
            f"{context}: symmetry {tag!r} violated, entry idx "
            f"{[a + 1 for a in idx]} disagrees with idx {[a + 1 for a in perm]}"
        )
    if tag == "fully_symmetric":
        # the symmetry check passed: every entry equals the one at its sorted
        # index exactly, so those are the only entries to test
        real = all(f.is_real() for idx, f in comps.items()
                   if all(x <= y for x, y in zip(idx, idx[1:])))
    else:
        real = t.is_real()
    if not real:
        _fail(f"{context}: field is not real")
    return t


# -- connection curves -------------------------------------------------------------


def connection_to_json(conn: ConnectionCurve, scalar=scalar_to_json):
    return {
        "kind": "connection_curve",
        "version": FORMAT_VERSION,
        "dim": conn.dim,
        "cap": conn.cap,
        "omega": omega_to_json(conn.sdata),
        "A": [tensor_to_json(t, scalar) for t in conn.abar[1:]],
    }


def connection_from_json(obj):
    """`tensor_from_json` checks every order's rank, index bounds, full
    symmetry and reality, and the order-0 term is prepended as zero, so the
    curve is built without checking them a second time."""
    dim, cap = _header(obj, "connection_curve")
    sdata = omega_from_json(_expect(obj, "omega", "connection_curve"), dim)
    orders = _expect(obj, "A", "connection_curve")
    if not isinstance(orders, list) or len(orders) != cap:
        _fail(f"connection_curve: need exactly {cap} difference tensors (orders 1..K)")
    abar = [
        tensor_from_json(
            t, dim, f"A order {k + 1}", expect_rank=3, expect_symmetry="fully_symmetric"
        )
        for k, t in enumerate(orders)
    ]
    return ConnectionCurve(sdata, cap, abar, validate=False)


# -- structure-map curves -----------------------------------------------------------


def _cube_texts(dim, order):
    """The "p/q" texts of a cube in stored form (den, entries), as one flat
    list in index order (a, b, c)."""
    den, entries = order
    texts = {key: _ratio_to_str(v, den) for key, v in entries.items()}
    idx = range(dim)
    return [texts.get((a, b, c), "0") for a in idx for b in idx for c in idx]


def _cube_to_json(dim, order):
    """The dense array of "p/q" texts of a cube in stored form (den, entries)."""
    flat = _cube_texts(dim, order)
    return [[flat[(a * dim + b) * dim:(a * dim + b + 1) * dim] for b in range(dim)]
            for a in range(dim)]


class _CubeLeaf:
    """A stored cube order left as a leaf of a tree, which `json_text`
    writes as its dense array, straight to text."""

    __slots__ = ("dim", "order")

    def __init__(self, dim, order):
        self.dim = dim
        self.order = order


def _cube_text(leaf, nl):
    """The `json_text` of `_cube_to_json(leaf.dim, leaf.order)` whose line
    breaks are followed by nl.  A "p/q" text needs no escape."""
    dim = leaf.dim
    i1 = nl + " "
    i2 = i1 + " "
    i3 = i2 + " "
    texts = _cube_texts(dim, leaf.order)
    head, sep, tail = i2 + "[" + i3 + '"', '",' + i3 + '"', '"' + i2 + "]"
    rows = [head + sep.join(texts[r * dim:(r + 1) * dim]) + tail for r in range(dim * dim)]
    planes = [i1 + "[" + ",".join(rows[a * dim:(a + 1) * dim]) + i1 + "]"
              for a in range(dim)]
    return "[" + ",".join(planes) + nl + "]"


def structure_map_to_json(b: StructureMapCurve, cube=_cube_to_json):
    """The JSON tree of a structure-map curve, each stored order written by
    `cube(dim, order)`."""
    return {
        "kind": "structure_map_curve",
        "version": FORMAT_VERSION,
        "dim": b.dim,
        "cap": b.cap,
        "omega": omega_to_json(b.sdata),
        "cubes": [cube(b.dim, order) for order in b.orders],
    }


def structure_map_from_json(obj):
    dim, cap = _header(obj, "structure_map_curve")
    sdata = omega_from_json(_expect(obj, "omega", "structure_map_curve"), dim)
    raw = _expect(obj, "cubes", "structure_map_curve")
    if not isinstance(raw, list) or len(raw) != cap + 1:
        _fail(f"structure_map_curve: need {cap + 1} cubes (orders 0..K)")
    orders = []
    for k, cube in enumerate(raw):
        if not (isinstance(cube, list) and all(
                isinstance(p, list) and all(isinstance(r, list) for r in p) for p in cube)):
            _fail(f"structure_map_curve: cube {k} is not a rank-3 array")
        if len(cube) != dim or any(len(p) != dim or any(len(r) != dim for r in p) for p in cube):
            _fail(f"structure_map_curve: cube {k} has wrong shape")
        # every entry is checked in order and only the nonzero ones are kept;
        # "0", the common entry, is a valid literal and needs no parse
        orders.append(integral_form({
            (a, b, c): v for a, plane in enumerate(cube) for b, row in enumerate(plane)
            for c, x in enumerate(row) if x != "0" and (v := _parse_rational(x, f"cube {k}"))}))
    try:
        return StructureMapCurve.from_orders(sdata, cap, orders)
    except Exception as exc:
        _fail(f"structure_map_curve: {exc}")


# -- symplectomorphism curves --------------------------------------------------------


def symplecto_to_json(psi: SymplectoCurve, scalar=scalar_to_json):
    return {
        "kind": "symplecto_curve",
        "version": FORMAT_VERSION,
        "dim": psi.dim,
        "cap": psi.cap,
        "omega": omega_to_json(psi.sdata),
        "C": [list(row) for row in psi.c_mat],
        "d": [rational_to_str(x) for x in psi.d],
        "X": [[scalar(c) for c in g.comps] for g in psi.gens[1:]],
    }


def symplecto_from_json(obj, header=None):
    """The SymplectoCurve of a parsed file; `header`, when given, is called
    with the file's SymplecticData and cap before its affine part and its
    generators are read, and may raise to refuse the file."""
    dim, cap = _header(obj, "symplecto_curve")
    sdata = omega_from_json(_expect(obj, "omega", "symplecto_curve"), dim)
    if header is not None:
        header(sdata, cap)
    c_mat = _expect(obj, "C", "symplecto_curve")
    if (
        not isinstance(c_mat, list)
        or len(c_mat) != dim
        or any(
            not isinstance(r, list) or len(r) != dim or not all(_is_int(x) for x in r)
            for r in c_mat
        )
    ):
        _fail("symplecto_curve: C must be an integer matrix")
    d = _expect(obj, "d", "symplecto_curve")
    if not isinstance(d, list) or len(d) != dim:
        _fail("symplecto_curve: d must have one entry per coordinate")
    d = [_parse_rational(x, "symplecto_curve d") for x in d]
    raw = _expect(obj, "X", "symplecto_curve")
    if not isinstance(raw, list) or len(raw) != cap:
        _fail(f"symplecto_curve: need {cap} generators (orders 1..K)")
    gens = []
    for k, comps in enumerate(raw):
        if not isinstance(comps, list) or len(comps) != dim:
            _fail(f"symplecto_curve: generator {k + 1} needs {dim} components")
        gens.append(
            FourierVectorField(
                [scalar_from_json(c, dim, f"X order {k + 1} comp {a + 1}") for a, c in enumerate(comps)]
            )
        )
    try:
        return SymplectoCurve(sdata, cap, c_mat, d, gens)
    except Exception as exc:
        _fail(f"symplecto_curve: {exc}")


# -- normalization results ------------------------------------------------------------


def normalization_to_json(res: NormalizationResult, scalar=scalar_to_json,
                          cube=_cube_to_json):
    return {
        "kind": "normalization_result",
        "version": FORMAT_VERSION,
        "flat": structure_map_to_json(res.flat_curve, cube),
        "witness": symplecto_to_json(res.witness, scalar),
        "log": res.per_order_log,
    }


# -- top level -------------------------------------------------------------------------

_PARSERS = {
    "connection_curve": connection_from_json,
    "structure_map_curve": structure_map_from_json,
    "symplecto_curve": symplecto_from_json,
}


def from_json(obj, header=None):
    """The curve value of a parsed file; `header` is passed to
    `symplecto_from_json` and read by no other kind."""
    if not isinstance(obj, dict):
        _fail("top level: expected a JSON object")
    kind = _expect(obj, "kind", "top level", str)
    parser = _PARSERS.get(kind)
    if parser is None:
        _fail(f"top level: unknown kind {kind!r}")
    version = _expect(obj, "version", "top level")
    if not _is_int(version) or version != FORMAT_VERSION:
        _fail(f"top level: unsupported version {version!r} (expected {FORMAT_VERSION})")
    if parser is symplecto_from_json:
        return parser(obj, header)
    return parser(obj)


def _tree(value, scalar, cube):
    """The JSON tree of a curve value, each FourierScalar written by
    `scalar` and each stored cube order by `cube`."""
    if isinstance(value, ConnectionCurve):
        return connection_to_json(value, scalar)
    if isinstance(value, StructureMapCurve):
        return structure_map_to_json(value, cube)
    if isinstance(value, SymplectoCurve):
        return symplecto_to_json(value, scalar)
    if isinstance(value, NormalizationResult):
        return normalization_to_json(value, scalar, cube)
    raise TypeError(f"no serialization for {type(value).__name__}")


def to_json(value):
    """The plain JSON tree of a curve value: dicts, lists, str and int."""
    return _tree(value, scalar_to_json, _cube_to_json)


def _append_json(obj, parts, nl, texts):
    """Append the text of obj, whose line breaks are followed by nl.  texts
    maps (id, nl) of each scalar written so far to (scalar, text); holding
    the scalar keeps its id from being reused within the call."""
    t = type(obj)
    if t is str:
        parts.append(encode_basestring_ascii(obj))
    elif t is FourierScalar:
        written = texts.get((id(obj), nl))
        if written is None:
            written = texts[id(obj), nl] = obj, _scalar_text(obj, nl)
        parts.append(written[1])
    elif t is _CubeLeaf:
        parts.append(_cube_text(obj, nl))
    elif t is list or t is tuple:
        if not obj:
            parts.append("[]")
            return
        inner = nl + " "
        sep = "[" + inner
        for item in obj:
            parts.append(sep)
            _append_json(item, parts, inner, texts)
            sep = "," + inner
        parts.append(nl + "]")
    elif t is dict:
        if not obj:
            parts.append("{}")
            return
        inner = nl + " "
        sep = "{" + inner
        for key, item in obj.items():
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            parts.append(sep + encode_basestring_ascii(key) + ": ")
            _append_json(item, parts, inner, texts)
            sep = "," + inner
        parts.append(nl + "}")
    elif t is bool:
        parts.append("true" if obj else "false")
    elif t is int:
        parts.append(int.__repr__(obj))
    elif obj is None:
        parts.append("null")
    else:
        raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


def json_text(obj) -> str:
    """`json.dumps(obj, indent=1) + "\\n"`, byte for byte, for a tree of str,
    dict (str keys), list or tuple (both written as arrays), int, bool and
    None; any other type raises TypeError.  A FourierScalar leaf is written
    as its `scalar_to_json` mode list, once per scalar object and depth in
    a call, and a stored cube leaf as its dense array.  `json.dumps` with an indent runs the json module's pure-Python
    encoder; this writes the same lines directly, with the C string escaper
    that `json.dumps` uses by default (ensure_ascii)."""
    parts = []
    _append_json(obj, parts, "\n", {})
    parts.append("\n")
    return "".join(parts)


def dumps(value) -> str:
    """The curve file text of a value, byte-identical to
    `json.dumps(to_json(value), indent=1) + "\\n"`: `json_text` of its tree
    with each FourierScalar and each stored cube order left as a leaf."""
    return json_text(_tree(value, _scalar_leaf, _CubeLeaf))


def loads(text: str, header=None):
    # a number literal longer than the interpreter's int digit limit raises
    # a plain ValueError, of which JSONDecodeError is a subclass; nesting
    # deeper than the interpreter's recursion limit raises RecursionError
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        _fail(f"not valid JSON: {exc}")
    return from_json(obj, header)


def load_path(path, header=None):
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read(), header)
