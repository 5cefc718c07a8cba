"""magalg benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload analyze-mixed --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`.  Every workload is a closed loop with one caller in this process:
each CLI call starts after the previous one returns.

With `--trace 0` the run measures the end-to-end metrics untraced.  With
`--trace 1` it runs each op twice, untraced and with per-layer wrappers
installed (see tracing.py), and reports per-layer metrics plus the
tracing overhead.  Spans are written to
`.bench_run/trace-<workload>-<seed>.jsonl`.

Standard output ends with one JSON line: correct, attempted and failed
(counted in units: field points, grid rows or trials) and the metrics.
The line before it is a report with provenance and the figures that are
printed but not gated.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

from tracing import COUNTERS, SPANS, Tracer, self_times

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
MIN_CALLS = 100  # op_ms.p90 needs ten samples beyond it
SETUP_REPEATS = 5


def percentile(values, q):
    """Nearest-rank q-quantile, or None unless at least ten samples lie beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    if len(ordered) - rank < 10:
        return None
    return ordered[rank - 1]


def count_failed(calls):
    """(attempted, failed) in units: a unit fails when its problem list is not empty."""
    attempted = sum(len(c.problems) for c in calls)
    failed = sum(1 for c in calls for p in c.problems if p)
    return attempted, failed


def run_calls(workload, seconds):
    """Closed loop: calls until `seconds` have passed and at least MIN_CALLS are done."""
    calls = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(calls) < MIN_CALLS:
        calls.append(workload.call(len(calls)))
    return calls


def run_traced(workload, seconds):
    """Each op twice, untraced and traced, alternating which goes first, until `seconds` have passed.

    Pairing the two runs of an op keeps drift in machine speed out of
    trace.overhead_frac.  Returns (untraced calls, traced calls, tracer).
    """
    tracer = Tracer()
    untraced, traced = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        i = tracer.op = len(traced)
        for with_trace in (False, True) if i % 2 == 0 else (True, False):
            if with_trace:
                with tracer.installed():
                    traced.append(workload.call(i))
            else:
                untraced.append(workload.call(i))
    return untraced, traced, tracer


def git_sha():
    """The checkout's commit, read from .git without running git; 'unknown' outside a repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def setup(workload_cls, workdir, seed):
    """Import the program afresh and build the inputs, SETUP_REPEATS times; returns (workload, seconds)."""
    times = []
    for _ in range(SETUP_REPEATS):
        for name in [m for m in sys.modules if m == "magalg" or m.startswith("magalg.")]:
            del sys.modules[name]
        start = time.perf_counter()
        cli = importlib.import_module("magalg.cli")
        workload = workload_cls(cli, workdir, seed)
        times.append(time.perf_counter() - start)
    return workload, times


def end_to_end(calls, setup_times):
    units = sum(len(c.problems) for c in calls)
    op_ms = [1e3 * c.seconds / len(c.problems) for c in calls]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (units / sum(c.seconds for c in calls), "1/s"),
        "op_ms.p50": (percentile(op_ms, 0.50), "ms"),
        "op_ms.p90": (percentile(op_ms, 0.90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tracer, calls, untraced_calls, workload_name):
    units = sum(len(c.problems) for c in calls)
    calls_by_name = {name: 0 for name in SPANS}
    for s in tracer.spans:
        calls_by_name[s.name] += 1
    self_s = self_times(tracer.spans)
    out = {}
    for name in SPANS:
        out[f"{name}.calls"] = (calls_by_name[name] / units, "count/op")
        out[f"{name}.self_ms"] = (1e3 * self_s.get(name, 0.0) / units, "ms/op")
    for name in COUNTERS:
        out[f"{name}.calls"] = (tracer.counts[name] / units, "count/op")
    counts = tracer.counts
    planes_calls = calls_by_name["algebra.find_invariant_planes"]
    out["algebra.find_invariant_planes.planes_per_call"] = (
        counts["algebra.find_invariant_planes.planes"] / planes_calls if planes_calls else 0.0, "count/call")
    starts = counts["extremal.locate_candidates.starts"]
    out["extremal.locate_candidates.eigen_self_per_start"] = (
        counts["extremal.locate_candidates.eigen_self"] / starts if starts else 0.0, "count/start")
    out["cli.sweep.candidate_calls_per_row"] = (
        calls_by_name["extremal.locate_candidates"] / units if workload_name == "sweep-pair" else 0.0, "count/row")
    traced_s = sum(c.seconds for c in calls)
    untraced_s = sum(c.seconds for c in untraced_calls)
    out["trace.overhead_frac"] = ((traced_s - untraced_s) / untraced_s, "ratio")
    return out


def top_layer_by_branch(spans, calls):
    """For each set of branches an op returned, how often each layer had the op's largest self time."""
    by_op = defaultdict(list)
    for s in spans:
        by_op[s.op].append(s)
    out = defaultdict(Counter)
    for op, op_spans in by_op.items():
        own = self_times(op_spans)
        out["+".join(sorted(set(calls[op].branches))) or "-"][max(own, key=own.get)] += 1
    return out


def parse_args(argv):
    p = argparse.ArgumentParser(description="magalg benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:  # before numpy loads its BLAS: one caller, one thread
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "magalg" / "cli.py").is_file():
        print(f"error: no program source at {src}; run from the root of a magalg checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy as np
    from workloads import WORKLOADS, check_references

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    out_dir = ROOT / ".bench_run"
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload, setup_times = setup(WORKLOADS[args.workload], workdir, args.seed)
        workload.call(0)  # warm-up, not counted
        if args.trace:
            untraced, traced, tracer = run_traced(workload, args.seconds)
            tracer.write(out_dir / f"trace-{args.workload}-{args.seed}.jsonl")
            metrics = per_layer(tracer, traced, untraced, args.workload)
            trace_report = {
                "missing_bindings": tracer.missing,
                "top_self_layer_by_branch": top_layer_by_branch(tracer.spans, traced),
            }
            calls = untraced + traced
        else:
            calls = run_calls(workload, args.seconds)
            metrics = end_to_end(calls, setup_times)
            trace_report = {}
        max_rel_err = check_references(workload, calls)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = count_failed(calls)
    problems = [p for c in calls for unit in c.problems for p in unit]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "calls": len(calls),
        "failed_frac": failed / attempted,
        "lambda_bar.max_rel_err": max_rel_err,
        "setup_s.samples": setup_times,
        "branches": Counter(b for c in calls for b in c.branches),
        "problems": problems[:10],
        **trace_report,
    }
    print(json.dumps(report))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
