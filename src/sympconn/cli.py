"""Command-line surface.

Subcommands: check, normalize, generate, equiv, act.  Reports are JSON on
stdout, deterministic for identical inputs and flags (timing goes to stderr
only).  Exit codes: 0 all checks pass / witness found; 1 a mathematical
verdict is negative (not Ricci type, distinct, no witness within the bound);
2 input error; 3 internal assertion failure (a bug, not a data condition).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
import time

from . import __version__
from .curvature import (
    MAX_CURVE_WORK,
    ConnectionCurve,
    bianchi_check,
    curvature_bundle,
    curve_work,
)
from .errors import (
    ConfigurationError,
    InputError,
    NonRepresentablePhase,
    NotExactCube,
    PreconditionError,
    SympconnError,
)
from .fourier import FourierScalar, SymplecticData
from .generate import conjugated_flat_fixture, gradient_curve, random_connection_curve
from .invariant import StructureMapCurve, rank_one_cube, zero_cube
from .moduli import ModuliClassQuery, equivalence_semidecide, validity_check
from .normalization import normalize_curve
from .rationals import rational_from_str
from .serialize import dumps, json_text, load_path, omega_from_json, to_json
from .symplecto import SymplectoCurve, act_on_connection

EXIT_PASS = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _load(path, want=None):
    if not os.path.exists(path):
        raise InputError(f"no such file: {path}")
    try:
        value = load_path(path)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    if want is not None and not isinstance(value, want):
        raise InputError(
            f"{path}: expected a {want.__name__}, found {type(value).__name__}"
        )
    return value


def _require_within_ceiling(path, conn):
    """Refuse a connection curve whose curvature is too much work (exit 2)."""
    work = curve_work(conn)
    if work > MAX_CURVE_WORK:
        raise InputError(
            f"{path}: estimated work {work} exceeds the ceiling of {MAX_CURVE_WORK} "
            "coefficient products (sum over k of nnz(A^(s)) nnz(A^(s')), s + s' = k)"
        )


def _load_connection(path):
    conn = _load(path, ConnectionCurve)
    _require_within_ceiling(path, conn)
    return conn


def _write_atomic(path, text):
    """Write through a temporary file in the target's directory, which is
    removed if the write or the rename fails.  The file gets the mode a
    plain `open` gives, 0o666 less the umask, not mkstemp's 0o600."""
    d = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=d, prefix=".sympconn-")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            umask = os.umask(0)
            os.umask(umask)
            os.chmod(tmp, 0o666 & ~umask)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror}") from None


def _emit(report):
    sys.stdout.write(json_text(report))


def _report(command, inputs, **body):
    return {
        "command": command,
        "version": __version__,
        "inputs": {p: _digest(p) for p in inputs},
        **body,
    }


def _first_nonzero_order(curve):
    for k, t in enumerate(curve.orders):
        if not t.is_zero():
            return k
    return None


# -- check ------------------------------------------------------------------------


def cmd_check(args):
    value = _load(args.input)
    if isinstance(value, StructureMapCurve):
        ok, witness = validity_check(value)
        _emit(_report("check", [args.input], kind="structure_map_curve",
                      valid=ok, witness=witness))
        return EXIT_PASS if ok else EXIT_NEGATIVE
    if not isinstance(value, ConnectionCurve):
        raise InputError(f"{args.input}: check expects a curve file")
    _require_within_ceiling(args.input, value)
    bundle = curvature_bundle(value)
    bianchi = bianchi_check(value)
    w_orders = [t.is_zero() for t in bundle.W.orders]
    ricci_type = all(w_orders)
    body = {
        "kind": "connection_curve",
        "dim": value.dim,
        "cap": value.cap,
        "W_vanishes_per_order": w_orders,
        "ricci_type": ricci_type,
        "first_failing_order": None if ricci_type else w_orders.index(False),
        "bianchi_first": bianchi["first"],
        "bianchi_second": bianchi["second"],
    }
    if ricci_type:
        body["u_b_residuals"] = bundle.residuals
        body["u_first_nonzero_order"] = _first_nonzero_order(bundle.u)
        body["b_first_nonzero_order"] = _first_nonzero_order(bundle.b)
    _emit(_report("check", [args.input], **body))
    ok = ricci_type and bianchi["ok"]
    return EXIT_PASS if ok else EXIT_NEGATIVE


# -- normalize --------------------------------------------------------------------


def cmd_normalize(args):
    conn = _load_connection(args.input)
    result = normalize_curve(conn)
    if args.out:
        _write_atomic(args.out, dumps(result.flat_curve))
    if args.witness:
        _write_atomic(args.witness, dumps(result.witness))
    _emit(_report(
        "normalize", [args.input],
        verified="witness . input == embedded flat curve",
        log=result.per_order_log,
        flat_written=args.out,
        witness_written=args.witness,
    ))
    return EXIT_PASS


# -- generate ---------------------------------------------------------------------


def _parse_mode(text, dim):
    try:
        mode = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise InputError(f"bad mode {text!r}; expected comma-separated integers")
    if len(mode) != dim:
        raise InputError(f"mode {text!r} needs {dim} entries")
    return mode


# Ceilings on `generate`, checked before anything is built.  A rank-one
# cube has dim^3 entries and every file grows linearly in the order.  At
# both ceilings (dim 16, order 32) the slowest kind, conjugated, takes 3.4 s
# on a 2-vCPU VM, and rank-one writes the largest file, 1.5 MB.
MAX_GENERATE_DIM = 16
MAX_GENERATE_ORDER = 32


def cmd_generate(args):
    dim = args.dim
    if dim < 4 or dim % 2:
        raise InputError("dimension must be an even integer >= 4")
    if dim > MAX_GENERATE_DIM:
        raise InputError(f"dimension {dim} exceeds the ceiling of {MAX_GENERATE_DIM}")
    if args.order > MAX_GENERATE_ORDER:
        raise InputError(f"order {args.order} exceeds the ceiling of {MAX_GENERATE_ORDER}")
    # the conjugated fixture's Hamiltonian steps sit at orders 1 and 2
    floor = 2 if args.kind == "conjugated" else 0
    if args.order < floor:
        raise InputError(f"order {args.order} for --kind {args.kind} must be at least {floor}")
    if args.omega:
        try:
            with open(args.omega, "r", encoding="utf-8") as fh:
                omega = json.load(fh)
        except (OSError, ValueError) as exc:
            raise InputError(f"cannot read omega file {args.omega}: {exc}")
        sdata = omega_from_json(omega, dim)
    else:
        sdata = SymplecticData.standard(dim)
    cap = args.order
    if args.kind == "rank-one":
        try:
            v = tuple(rational_from_str(x) for x in args.vector.split(","))
        except ValueError as exc:
            raise InputError(f"bad vector {args.vector!r}: {exc}")
        if len(v) != dim:
            raise InputError(f"vector needs {dim} entries")
        cubes = [zero_cube(dim)] + [rank_one_cube(sdata, v)] * cap
        value = StructureMapCurve(sdata, cap, cubes)
    elif args.kind == "gradient":
        mode = _parse_mode(args.mode, dim)
        f = (FourierScalar.cosine if args.trig == "cos" else FourierScalar.sine)(dim, mode)
        value = gradient_curve(sdata, cap, f, order=1)
    elif args.kind == "conjugated":
        if not sdata.is_standard():
            raise InputError("conjugated fixtures use the standard omega")
        _, _, value = conjugated_flat_fixture(args.seed, dim=dim, cap=cap)
    elif args.kind == "random":
        if not sdata.is_standard():
            raise InputError("random fixtures use the standard omega")
        value = random_connection_curve(args.seed, dim=dim, cap=cap)
    else:  # argparse choices make this unreachable
        raise InputError(f"unknown kind {args.kind!r}")
    obj = to_json(value)
    obj["provenance"] = {
        "generator": args.kind,
        "seed": args.seed,
        "dim": dim,
        "cap": cap,
    }
    text = json_text(obj)
    if args.out:
        _write_atomic(args.out, text)
        _emit({"command": "generate", "version": __version__,
               "kind": args.kind, "written": args.out})
    else:
        sys.stdout.write(text)
    return EXIT_PASS


# -- equiv ------------------------------------------------------------------------


def cmd_equiv(args):
    a = _load(args.a, StructureMapCurve)
    b = _load(args.b, StructureMapCurve)
    verdict = equivalence_semidecide(ModuliClassQuery(a, b, args.bound))
    body = {"verdict": verdict.kind, "bound": args.bound}
    if verdict.witness is not None:
        body["witness"] = [list(row) for row in verdict.witness]
    if verdict.separating is not None:
        body["separating_invariant"] = verdict.separating
    _emit(_report("equiv", [args.a, args.b], **body))
    return EXIT_PASS if verdict.kind == "equivalent" else EXIT_NEGATIVE


# -- act --------------------------------------------------------------------------


def cmd_act(args):
    psi = _load(args.psi, SymplectoCurve)
    conn = _load_connection(args.input)
    moved = act_on_connection(psi, conn)
    text = dumps(moved)
    if args.out:
        _write_atomic(args.out, text)
        _emit(_report("act", [args.psi, args.input], written=args.out))
    else:
        sys.stdout.write(text)
    return EXIT_PASS


# -- driver -----------------------------------------------------------------------


def build_parser():
    p = argparse.ArgumentParser(
        prog="sympconn",
        description="Exact formal curves of symplectic connections on the torus.",
    )
    sub = p.add_subparsers(dest="subcommand", required=True)

    c = sub.add_parser("check", help="curvature, Bianchi and Ricci-type report")
    c.add_argument("input")
    c.set_defaults(fn=cmd_check)

    n = sub.add_parser("normalize", help="conjugate a Ricci-type curve to a flat invariant one")
    n.add_argument("input")
    n.add_argument("--out", help="write the flat structure-map curve here")
    n.add_argument("--witness", help="write the symplectomorphism witness here")
    n.set_defaults(fn=cmd_normalize)

    g = sub.add_parser("generate", help="emit a seeded fixture file")
    g.add_argument("--kind", required=True,
                   choices=["rank-one", "gradient", "conjugated", "random"])
    g.add_argument("--dim", type=int, default=4)
    g.add_argument("--order", type=int, default=2, metavar="K")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--omega", help="JSON file with an omega matrix (default: standard)")
    g.add_argument("--vector", default="1" + ",0" * 3,
                   help="rank-one vector, comma-separated rationals")
    g.add_argument("--mode", default="1,0,0,0", help="gradient mode, comma-separated integers")
    g.add_argument("--trig", choices=["cos", "sin"], default="cos")
    g.add_argument("--out")
    g.set_defaults(fn=cmd_generate)

    e = sub.add_parser("equiv", help="bounded Sp(2n,Z) equivalence search")
    e.add_argument("a")
    e.add_argument("b")
    e.add_argument("--bound", type=int, default=2, metavar="L")
    e.set_defaults(fn=cmd_equiv)

    a = sub.add_parser("act", help="apply a symplectomorphism curve to a connection curve")
    a.add_argument("psi")
    a.add_argument("input")
    a.add_argument("--out")
    a.set_defaults(fn=cmd_act)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    start = time.monotonic()
    try:
        code = args.fn(args)
    except (InputError, ConfigurationError, NonRepresentablePhase) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (PreconditionError, NotExactCube) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    except SympconnError as exc:
        print(f"internal assertion failed (this is a bug): {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        print(f"elapsed: {time.monotonic() - start:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
