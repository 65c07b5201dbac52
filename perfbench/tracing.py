"""Span tracing installed from the benchmark's side of the program boundary.

The package's modules import each other's functions by name (for example
``normalization`` does ``from .curvature import curvature_bundle``), so
replacing ``curvature.curvature_bundle`` alone would miss most calls.
`Tracer.install` wraps every public module-level function of each layer
and puts the wrapper into every ``sympconn`` namespace that holds the
original object.  Gaussian-rational ``+`` and ``*`` are far too frequent for
spans; they only bump a counter.

A span is (name, start, end, parent span, operation id).  Spans are kept in
flat arrays while the run lasts and written out once at the end.  Calls made
outside an operation (input building, the benchmark's own checks) are not
recorded.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
from array import array
from collections import Counter, defaultdict
from fractions import Fraction
from time import perf_counter

from sympconn.fourier import FourierScalar
from sympconn.rationals import GaussianRational

# Layer name -> modules whose public functions belong to it.  Metric names
# cannot start with "_", so the ``_kernel`` layer is reported as "kernel".
LAYERS = {
    "rationals": ("sympconn.rationals",),
    "kernel": ("sympconn._kernel.pure",),
    "fourier": ("sympconn.fourier",),
    "curvature": ("sympconn.curvature",),
    "symplecto": ("sympconn.symplecto",),
    "normalization": ("sympconn.normalization",),
    "invariant": ("sympconn.invariant",),
    "linalg": ("sympconn.linalg",),
    "moduli": ("sympconn.moduli",),
    "euclidean": ("sympconn.euclidean",),
    "serialize": ("sympconn.serialize",),
    "generate": ("sympconn.generate",),
}

NO_PARENT = -1


def _public_functions(module):
    for name, obj in sorted(vars(module).items()):
        if (
            not name.startswith("_")
            and inspect.isfunction(obj)
            and obj.__module__ == module.__name__
        ):
            yield name, obj


class Tracer:
    """Records spans and counters for calls into the program's layers."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.span_name = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.counters = Counter()
        self._stack = []
        self._op = None
        self._patches = []  # (owner, attribute, original)

    # -- operations ------------------------------------------------------

    def begin_op(self, op_id, label):
        """Open the root span of one benchmark operation."""
        self._op = op_id
        self._push(self._name_id(f"op.{label}"))

    def end_op(self):
        self._pop()
        self._op = None

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _push(self, nid):
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else NO_PARENT)
        self.span_op.append(self._op)
        self.span_end.append(0.0)
        self.span_start.append(perf_counter())
        self._stack.append(idx)

    def _pop(self):
        self.span_end[self._stack.pop()] = perf_counter()

    # -- wrappers --------------------------------------------------------

    def _span_wrapper(self, name, fn, on_call=None):
        nid = self._name_id(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            tracer._push(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._pop()
            if on_call is not None:
                on_call(tracer.counters, args, result)
            return result

        return wrapper

    def _count_wrapper(self, key, fn):
        counters = self.counters
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args):
            if tracer._op is not None:
                counters[key] += 1
            return fn(*args)

        return wrapper

    def install(self, hooks=None):
        """Wrap every layer's public functions wherever they are bound.

        ``hooks`` maps "layer.function" to a callable (counters, args,
        result) run after each traced call, for counts that need the
        arguments or the result.
        """
        hooks = hooks or {}
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "sympconn" or n.startswith("sympconn.")]
        for layer, module_names in LAYERS.items():
            for module_name in module_names:
                module = sys.modules[module_name]
                for fname, fn in _public_functions(module):
                    qual = f"{layer}.{fname}"
                    wrapper = self._span_wrapper(qual, fn, hooks.get(qual))
                    for ns in namespaces:
                        for attr, value in list(vars(ns).items()):
                            if value is fn:
                                self._patches.append((ns, attr, fn))
                                setattr(ns, attr, wrapper)
        for dunder in ("__add__", "__mul__"):
            original = GaussianRational.__dict__[dunder]
            self._patches.append((GaussianRational, dunder, original))
            setattr(GaussianRational, dunder,
                    self._count_wrapper("rationals.gr_ops", original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis --------------------------------------------------------

    def span_count(self):
        return len(self.span_start)

    def aggregate(self, first, last):
        """Per span name: calls, total time and self time, over the spans
        with index in [first, last).

        Self time is a span's duration minus the time its child spans
        cover; spans nest strictly, so the children's durations add up.
        """
        child_time = defaultdict(float)
        for i in range(first, last):
            parent = self.span_parent[i]
            if parent >= first:
                child_time[parent] += self.span_end[i] - self.span_start[i]
        calls = Counter()
        total = defaultdict(float)
        self_time = defaultdict(float)
        for i in range(first, last):
            name = self.names[self.span_name[i]]
            dur = self.span_end[i] - self.span_start[i]
            calls[name] += 1
            total[name] += dur
            self_time[name] += dur - child_time.get(i, 0.0)
        return calls, total, self_time

    def write_spans(self, path):
        """One tab-separated line per span: id, name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\top\n")
            for i in range(len(self.span_start)):
                fh.write(
                    f"{i}\t{self.names[self.span_name[i]]}\t{self.span_start[i]:.9f}\t"
                    f"{self.span_end[i]:.9f}\t{self.span_parent[i]}\t{self.span_op[i]}\n"
                )


# -- per-layer metrics -------------------------------------------------------------


def _count_convolve_terms(counters, args, result):
    counters["kernel.convolve_terms"] += len(args[0]) * len(args[1])


def _count_bytes_out(counters, args, result):
    counters["serialize.bytes_out"] += len(result)


def _count_normalized_orders(counters, args, result):
    counters["normalization.orders"] += args[0].cap


HOOKS = {
    "kernel.dict_convolve": _count_convolve_terms,
    "serialize.dumps": _count_bytes_out,
    "normalization.normalize_curve": _count_normalized_orders,
}


class OutputStats:
    """Sizes of exact outputs: Fourier nonzeros and coefficient height."""

    def __init__(self):
        self.output_nnz = 0
        self.max_scalar_nnz = 0
        self.max_coeff_bits = 0

    def _bits(self, q):
        self.max_coeff_bits = max(self.max_coeff_bits, q.numerator.bit_length(),
                                  q.denominator.bit_length())

    def add(self, obj):
        if isinstance(obj, Fraction):
            self._bits(obj)
        elif isinstance(obj, (str, bytes, bool, int, float)) or obj is None:
            return
        elif isinstance(obj, (list, tuple)):
            for x in obj:
                self.add(x)
        elif isinstance(obj, dict):
            for x in obj.values():
                self.add(x)
        elif isinstance(obj, FourierScalar):
            self.output_nnz += len(obj.coeffs)
            self.max_scalar_nnz = max(self.max_scalar_nnz, len(obj.coeffs))
            for c in obj.coeffs.values():
                self._bits(c.re)
                self._bits(c.im)
        else:
            # Curves, tensors, fields, polynomials and result records: walk
            # the attributes that hold data.
            for attr in ("coeffs", "components", "orders", "cubes", "gens", "comps",
                         "R", "r", "E", "W", "u", "b", "flat_curve", "witness"):
                if hasattr(obj, attr):
                    self.add(getattr(obj, attr))


def round_metrics(tracer, first, last, counters, stats, program_s):
    """Per-layer metrics of one traced round, name -> (value, unit)."""
    calls, total, selfs = tracer.aggregate(first, last)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "rationals.gr_ops": (counters["rationals.gr_ops"], "count"),
        "rationals.max_coeff_bits": (stats.max_coeff_bits, "bits"),
        "kernel.convolve_calls": (calls["kernel.dict_convolve"], "count"),
        "kernel.convolve_terms": (counters["kernel.convolve_terms"], "count"),
        "kernel.convolve_s": (total["kernel.dict_convolve"], "s"),
        "kernel.add_calls": (calls["kernel.dict_add"], "count"),
        "kernel.add_s": (total["kernel.dict_add"], "s"),
        "fourier.output_nnz": (stats.output_nnz, "count"),
        "fourier.max_scalar_nnz": (stats.max_scalar_nnz, "count"),
        "curvature.bundle_s": (total["curvature.curvature_bundle"], "s"),
        "curvature.bianchi_s": (total["curvature.bianchi_check"], "s"),
        "curvature.curvature_per_order": (
            ratio(calls["curvature.curvature_curve"], counters["normalization.orders"]), "ratio"),
        "curvature.curvature_curve_s": (total["curvature.curvature_curve"], "s"),
        "symplecto.act_calls": (calls["symplecto.act_on_connection"], "count"),
        "symplecto.act_s": (total["symplecto.act_on_connection"], "s"),
        "symplecto.compose_calls": (calls["symplecto.compose"], "count"),
        "symplecto.compose_s": (total["symplecto.compose"], "s"),
        "normalization.step_self_s": (selfs["normalization.recurrence_step"], "s"),
        "invariant.ricci_check_s": (total["invariant.invariant_ricci_type_check"], "s"),
        "invariant.flatness_check_s": (total["invariant.flatness_theorem_check"], "s"),
        "invariant.flatness_check_calls": (calls["invariant.flatness_theorem_check"], "count"),
        "linalg.mat_mul_calls": (calls["linalg.mat_mul"], "count"),
        "linalg.mat_mul_s": (total["linalg.mat_mul"], "s"),
        "moduli.validity_s": (total["moduli.validity_check"], "s"),
        "moduli.sp_action_calls": (calls["moduli.sp_action"], "count"),
        "moduli.sp_action_s": (total["moduli.sp_action"], "s"),
        "moduli.words_per_verdict": (
            ratio(calls["moduli.sp_action"], calls["moduli.equivalence_semidecide"]), "ratio"),
        "euclidean.equivalence_Rn_s": (total["euclidean.equivalence_Rn"], "s"),
        "euclidean.psi_A_check_s": (
            total["euclidean.psi_A_symplectic_check"] + total["euclidean.psi_A_connection_check"],
            "s"),
        "serialize.load_s": (total["serialize.loads"], "s"),
        "serialize.dumps_s": (total["serialize.dumps"], "s"),
        "serialize.bytes_out": (counters["serialize.bytes_out"], "bytes"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (
            sum(t for name, t in selfs.items() if name.startswith(layer + ".")), "s")
    m["op.self_s"] = (sum(t for name, t in selfs.items() if name.startswith("op.")), "s")
    m["trace.spans"] = (last - first, "count")
    m["trace.round_s"] = (program_s, "s")
    return m


def per_layer_metrics(tracer, spans, traced, untraced):
    """The per-layer result metrics of a traced run, and any problems.

    ``spans`` holds (first span, last span, counters) per traced round.
    Counts come from the first traced round, which every traced round must
    repeat exactly; times are the median over the traced rounds.  The
    overhead compares the rounds' normalized program times.
    """
    rows = []
    for (first, last, counters), rnd in zip(spans, traced):
        stats = OutputStats()
        stats.add(rnd.exact)
        rows.append(round_metrics(tracer, first, last, counters, stats, rnd.raw_s))
    problems = []
    metrics = {}
    for name, (value, unit) in rows[0].items():
        if unit == "s":
            value = statistics.median(row[name][0] for row in rows)
        elif any(row[name][0] != value for row in rows[1:]):
            problems.append(f"{name} differs between traced rounds")
        metrics[name] = {"value": value, "unit": unit}
    overhead = (statistics.median(r.norm_s for r in traced)
                / statistics.median(r.norm_s for r in untraced) - 1)
    metrics["trace.overhead_pct"] = {"value": 100 * overhead, "unit": "%"}
    return metrics, problems
