"""Layered, self-checking benchmark of the sympconn engine.

    python3 perfbench/run.py --workload check --seed 1 --seconds 30 --trace 0

Run from the repository root; the program is imported from ``src/``.  One
process runs one workload as a closed loop: a single client issues the next
operation only when the previous one has returned.  The operations are
repeated in whole rounds within ``--seconds``, and every output is checked
(see `checks`).  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
the run first repeats untraced rounds for a third of the time, then installs
the span tracer and repeats traced rounds; the metrics are then the
per-layer ones, taken from the traced rounds, plus the tracing overhead.
The line before the result carries the run digest, a sha256 over the
serialized exact outputs of one round; it is the same with and without
tracing.  A full report and, when tracing, the spans are written under
``perfbench/out/``.

Times of the program's calls are host-normalized (see `hostspeed`): each
interval is divided by the slowdown a fixed probe loop measured during it.
The raw wall times are kept in the report.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# The inputs are built this many times and the median build time is used,
# so one slow build does not decide setup_s.
SETUP_REPEATS = 3
# op_p90_ms needs at least ten operations above the 90th percentile.
P90_MIN_OPS = 40
TRACE_UNTRACED_SHARE = 1 / 3


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("check", "normalize", "ladders"))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


class Clock:
    """Program time of an interval, without probe time, raw and normalized.

    The host's speed is probed right before and right after the interval,
    so even an interval shorter than the probe period is normalized by what
    the host did around it.
    """

    def __init__(self, host):
        self.host = host

    def start(self):
        self.host.sample()
        return time.perf_counter(), self.host.probe_s

    def stop(self, mark):
        start, probe_start = mark
        end = time.perf_counter()
        raw = end - start - (self.host.probe_s - probe_start)
        self.host.sample()
        return raw, self.host.normalized(start, end, raw)


class RoundResult:
    def __init__(self):
        self.raw_s = 0.0
        self.norm_s = 0.0
        self.op_times = []  # (label, raw s, normalized s), None where it failed
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.exact = []
        self.digest = hashlib.sha256()


def run_round(ops, clock, tracer=None, first_op_id=0):
    """Run every operation once, timing only the program's calls."""
    from checks import CheckFailed

    res = RoundResult()
    for i, op in enumerate(ops):
        inputs = op.prepare()
        res.attempted += 1
        if tracer is not None:
            tracer.begin_op(first_op_id + i, op.label)
        mark = clock.start()
        error = None
        try:
            out = op.call(inputs)
        except Exception as exc:  # every failure is counted, expected or not
            error = exc
        finally:
            raw, norm = clock.stop(mark)
            if tracer is not None:
                tracer.end_op()
        res.raw_s += raw
        res.norm_s += norm
        if error is not None:
            res.op_times.append((op.label, None, None))
            res.failed += 1
            if op.known_fault is None or not op.known_fault(error):
                res.problems.append(f"{op.label}: unexpected {type(error).__name__}: {error}")
            res.digest.update(f"{op.label} failed\n".encode())
            continue
        res.op_times.append((op.label, raw, norm))
        try:
            payload, exact = op.check(inputs, out)
        except CheckFailed as exc:
            res.problems.append(f"{op.label}: wrong output: {exc}")
            continue
        except Exception as exc:  # output too malformed for the check to read
            res.problems.append(f"{op.label}: unreadable output: {type(exc).__name__}: {exc}")
            continue
        res.digest.update(f"{op.label}\n".encode() + payload + b"\n")
        if tracer is not None:
            res.exact.append(exact)
    return res


def repeat_rounds(ops, clock, deadline, tracer=None, first_op_id=0, on_round=None):
    """Whole rounds, at least one, while another round of the same length
    as the last would still end by the deadline."""
    rounds = []
    while True:
        start = time.perf_counter()
        if on_round is not None:
            on_round("start")
        rounds.append(run_round(ops, clock, tracer, first_op_id + len(rounds) * len(ops)))
        if on_round is not None:
            on_round("end")
        now = time.perf_counter()
        if now + (now - start) > deadline:
            return rounds


def op_times(rounds, column):
    """Each distinct successful operation's median time over its repetitions;
    column 1 is raw time, column 2 normalized."""
    samples = {}
    for r in rounds:
        for row in r.op_times:
            if row[1] is not None:
                samples.setdefault(row[0], []).append(row[column])
    return {label: statistics.median(ts) for label, ts in samples.items()}


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end_metrics(setup_s, rounds):
    per_op = op_times(rounds, 2).values()
    return {
        "setup_s": metric(setup_s, "s"),
        "run_s": metric(sum(per_op), "s"),
        "op_p50_ms": metric(1000 * statistics.median(per_op), "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "sympconn" / "__init__.py").is_file():
        print(f"perfbench: the program's sources are missing ({SRC / 'sympconn'})", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import hostspeed

    host = hostspeed.HostSpeed()
    host.start()
    try:
        return run(args, Clock(host))
    finally:
        host.stop()


def run(args, clock):
    mark = clock.start()
    import tracing
    import workloads

    import_s = clock.stop(mark)
    builds = []
    for _ in range(SETUP_REPEATS):
        mark = clock.start()
        ops = workloads.build(args.workload, args.seed)
        builds.append(clock.stop(mark))
    setup_s = import_s[1] + statistics.median(b[1] for b in builds)
    # Inputs live for the whole run; keep the collector from rescanning them.
    gc.collect()
    gc.freeze()

    start = time.perf_counter()
    traced = []
    if not args.trace:
        rounds = repeat_rounds(ops, clock, start + args.seconds)
    else:
        rounds = repeat_rounds(ops, clock, start + TRACE_UNTRACED_SHARE * args.seconds)
        tracer = tracing.Tracer()
        spans = []  # (first, last, counters) per traced round

        def on_round(event):
            if event == "start":
                tracer.counters.clear()
                spans.append(tracer.span_count())
            else:
                spans[-1] = (spans[-1], tracer.span_count(), tracer.counters.copy())

        tracer.install(tracing.HOOKS)
        try:
            traced = repeat_rounds(ops, clock, start + args.seconds, tracer,
                                   first_op_id=len(rounds) * len(ops), on_round=on_round)
        finally:
            tracer.uninstall()
    every = rounds + traced

    problems = [p for r in every for p in r.problems]
    digests = {r.digest.hexdigest() for r in every}
    if len(digests) != 1:
        problems.append(f"the outputs differ between rounds: {len(digests)} digests")
    digest = sorted(digests)[0]
    if args.trace:
        metrics, layer_problems = tracing.per_layer_metrics(tracer, spans, traced, rounds)
        problems += layer_problems
    else:
        metrics = end_to_end_metrics(setup_s, rounds)
    times = [row[2] for r in rounds for row in r.op_times if row[1] is not None]
    host = clock.host
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": len(rounds),
        "traced_rounds": len(traced),
        "ops_per_round": len(ops),
        "import_s": import_s,
        "build_s": builds,
        "round_raw_s": [r.raw_s for r in every],
        "round_normalized_s": [r.norm_s for r in every],
        "op_raw_s": op_times(rounds, 1),
        "op_normalized_s": op_times(rounds, 2),
        "host_slowdown_median": statistics.median(host.slowdowns),
        "probe_share": host.probe_s / (time.perf_counter() - host.times[0]),
        "digest": digest,
        "problems": problems,
        "metrics": metrics,
    }
    if len(times) >= P90_MIN_OPS:
        report["op_p90_ms"] = 1000 * statistics.quantiles(times, n=10)[-1]
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    if args.trace:
        tracer.write_spans(OUT / f"{stem}.spans.tsv")

    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    summary = ", ".join(f"{k}={v['value']:.6g}{v['unit']}" for k, v in metrics.items()
                        if not args.trace or k.startswith("trace."))
    if "op_p90_ms" in report:
        summary += f", op_p90_ms={report['op_p90_ms']:.6g}ms over {len(times)} ops"
    print(f"perfbench {args.workload} seed={args.seed}: {len(every)} rounds, host slowdown "
          f"{report['host_slowdown_median']:.2f}, {summary}", file=sys.stderr)
    attempted = sum(r.attempted for r in every)
    failed = sum(r.failed for r in every)
    print(f"digest sha256:{digest}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
