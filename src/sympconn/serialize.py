"""One JSON file format for every curve kind, discriminated by "kind".

All numbers are exact rational strings "p/q" (Gaussian rationals as
{"re", "im"}).  Tensor indices are 1-based in files and 0-based in memory.
Output ordering is canonical (entries sorted by index then mode), so equal
objects serialize to identical bytes.

Kinds: "connection_curve", "structure_map_curve", "symplecto_curve",
"normalization_result".

Every curve file is written by one emitter, `json_text`, and read by
`loads`, which checks each order of a curve once.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii

from .curvature import ConnectionCurve
from .errors import ConfigurationError, InputError
from .fourier import FourierScalar, SymplecticData, TensorField
from .invariant import StructureMapCurve
from .normalization import NormalizationResult
from .rationals import gaussian_from_strs, rational_from_str, rational_to_str
from .symplecto import FourierVectorField, SymplectoCurve

FORMAT_VERSION = 1


def _fail(msg):
    raise InputError(msg)


def _expect(obj, key, context):
    if not isinstance(obj, dict) or key not in obj:
        _fail(f"{context}: missing field {key!r}")
    return obj[key]


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
    rows = []
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != dim:
            _fail(f"{context}: row {i + 1} has wrong length")
        rows.append(tuple(_parse_rational(x, f"{context}[{i + 1}]") for x in row))
    try:
        return SymplecticData(tuple(rows))
    except Exception as exc:
        _fail(f"{context}: {exc}")


# -- scalars and tensors ----------------------------------------------------------


def scalar_to_json(f: FourierScalar):
    return [
        {"m": list(m), "c": f.coeffs[m].to_json()} for m in sorted(f.coeffs)
    ]


def scalar_from_json(obj, dim, context):
    if not isinstance(obj, list):
        _fail(f"{context}: expected a mode list")
    coeffs = {}
    for i, entry in enumerate(obj):
        m = _expect(entry, "m", f"{context} mode {i + 1}")
        if not isinstance(m, list) or len(m) != dim or not all(_is_int(x) for x in m):
            _fail(f"{context} mode {i + 1}: bad mode vector")
        m = tuple(m)
        if m in coeffs:
            _fail(f"{context}: duplicate mode {m}")
        c = _parse_gaussian(_expect(entry, "c", f"{context} mode {i + 1}"), f"{context} mode {i + 1}")
        if not c.is_zero():
            coeffs[m] = c
    return FourierScalar(dim, coeffs, _validated=True)


def tensor_to_json(t: TensorField):
    entries = []
    for idx in sorted(t.components):
        f = t.components[idx]
        if f.is_zero():
            continue
        entries.append({"idx": [a + 1 for a in idx], "modes": scalar_to_json(f)})
    return {"rank": t.rank, "symmetry": t.symmetry_tag, "entries": entries}


def tensor_from_json(obj, dim, context, expect_rank=None, expect_symmetry=None):
    rank = _expect(obj, "rank", context)
    tag = _expect(obj, "symmetry", context)
    if expect_rank is not None and rank != expect_rank:
        _fail(f"{context}: rank {rank}, expected {expect_rank}")
    if expect_symmetry is not None and tag != expect_symmetry:
        _fail(f"{context}: symmetry {tag!r}, expected {expect_symmetry!r}")
    comps = {}
    for i, entry in enumerate(_expect(obj, "entries", context)):
        idx = _expect(entry, "idx", f"{context} entry {i + 1}")
        if (
            not isinstance(idx, list)
            or len(idx) != rank
            or not all(_is_int(a) and 1 <= a <= dim for a in idx)
        ):
            _fail(f"{context} entry {i + 1}: bad index {idx!r} (1-based, rank {rank})")
        key = tuple(a - 1 for a in idx)
        if key in comps:
            _fail(f"{context}: duplicate index {idx}")
        f = scalar_from_json(
            _expect(entry, "modes", f"{context} entry {i + 1}"), dim, f"{context} entry {i + 1}"
        )
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
    if not t.is_real():
        _fail(f"{context}: field is not real")
    return t


# -- connection curves -------------------------------------------------------------


def connection_to_json(conn: ConnectionCurve):
    return {
        "kind": "connection_curve",
        "version": FORMAT_VERSION,
        "dim": conn.dim,
        "cap": conn.cap,
        "omega": omega_to_json(conn.sdata),
        "A": [tensor_to_json(t) for t in conn.abar[1:]],
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


def structure_map_to_json(b: StructureMapCurve):
    return {
        "kind": "structure_map_curve",
        "version": FORMAT_VERSION,
        "dim": b.dim,
        "cap": b.cap,
        "omega": omega_to_json(b.sdata),
        "cubes": [
            [[[rational_to_str(x) for x in row] for row in plane] for plane in cube]
            for cube in b.cubes
        ],
    }


def structure_map_from_json(obj):
    dim, cap = _header(obj, "structure_map_curve")
    sdata = omega_from_json(_expect(obj, "omega", "structure_map_curve"), dim)
    raw = _expect(obj, "cubes", "structure_map_curve")
    if not isinstance(raw, list) or len(raw) != cap + 1:
        _fail(f"structure_map_curve: need {cap + 1} cubes (orders 0..K)")
    cubes = []
    for k, cube in enumerate(raw):
        try:
            cubes.append(
                [
                    [[_parse_rational(x, f"cube {k}") for x in row] for row in plane]
                    for plane in cube
                ]
            )
        except TypeError:
            _fail(f"structure_map_curve: cube {k} is not a rank-3 array")
        if len(cubes[-1]) != dim or any(
            len(p) != dim or any(len(r) != dim for r in p) for p in cubes[-1]
        ):
            _fail(f"structure_map_curve: cube {k} has wrong shape")
    try:
        return StructureMapCurve(sdata, cap, cubes)
    except Exception as exc:
        _fail(f"structure_map_curve: {exc}")


# -- symplectomorphism curves --------------------------------------------------------


def symplecto_to_json(psi: SymplectoCurve):
    return {
        "kind": "symplecto_curve",
        "version": FORMAT_VERSION,
        "dim": psi.dim,
        "cap": psi.cap,
        "omega": omega_to_json(psi.sdata),
        "C": [list(row) for row in psi.c_mat],
        "d": [rational_to_str(x) for x in psi.d],
        "X": [
            [scalar_to_json(c) for c in g.comps] for g in psi.gens[1:]
        ],
    }


def symplecto_from_json(obj):
    dim, cap = _header(obj, "symplecto_curve")
    sdata = omega_from_json(_expect(obj, "omega", "symplecto_curve"), dim)
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


def normalization_to_json(res: NormalizationResult):
    return {
        "kind": "normalization_result",
        "version": FORMAT_VERSION,
        "flat": structure_map_to_json(res.flat_curve),
        "witness": symplecto_to_json(res.witness),
        "log": res.per_order_log,
    }


# -- top level -------------------------------------------------------------------------

_PARSERS = {
    "connection_curve": connection_from_json,
    "structure_map_curve": structure_map_from_json,
    "symplecto_curve": symplecto_from_json,
}


def from_json(obj):
    if not isinstance(obj, dict):
        _fail("top level: expected a JSON object")
    kind = _expect(obj, "kind", "top level")
    parser = _PARSERS.get(kind)
    if parser is None:
        _fail(f"top level: unknown kind {kind!r}")
    version = _expect(obj, "version", "top level")
    if not _is_int(version) or version != FORMAT_VERSION:
        _fail(f"top level: unsupported version {version!r} (expected {FORMAT_VERSION})")
    return parser(obj)


def to_json(value):
    if isinstance(value, ConnectionCurve):
        return connection_to_json(value)
    if isinstance(value, StructureMapCurve):
        return structure_map_to_json(value)
    if isinstance(value, SymplectoCurve):
        return symplecto_to_json(value)
    if isinstance(value, NormalizationResult):
        return normalization_to_json(value)
    raise TypeError(f"no serialization for {type(value).__name__}")


def _append_json(obj, parts, nl):
    """Append the text of obj, whose line breaks are followed by nl."""
    t = type(obj)
    if t is str:
        parts.append(encode_basestring_ascii(obj))
    elif t is list:
        if not obj:
            parts.append("[]")
            return
        inner = nl + " "
        sep = "[" + inner
        for item in obj:
            parts.append(sep)
            _append_json(item, parts, inner)
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
            _append_json(item, parts, inner)
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
    dict (str keys), list, int, bool and None; any other type raises
    TypeError.  `json.dumps` with an indent runs the json module's
    pure-Python encoder; this writes the same lines directly, with the C
    string escaper that `json.dumps` uses by default (ensure_ascii)."""
    parts = []
    _append_json(obj, parts, "\n")
    parts.append("\n")
    return "".join(parts)


def dumps(value) -> str:
    """The curve file text of a value: `json_text` of its `to_json` tree,
    byte-identical to `json.dumps(to_json(value), indent=1) + "\\n"`."""
    return json_text(to_json(value))


def loads(text: str):
    # a number literal longer than the interpreter's int digit limit raises
    # a plain ValueError, of which JSONDecodeError is a subclass
    try:
        obj = json.loads(text)
    except ValueError as exc:
        _fail(f"not valid JSON: {exc}")
    return from_json(obj)


def load_path(path):
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


def dump_path(value, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(value))
