#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of soncbound.

Run from the root of a source checkout (the package is imported from
./src, nothing is installed):

    python3 perfbench/run.py --workload acceptance --seed 0 --seconds 25 --trace 0

--trace 0 measures the end-to-end metrics with nothing wrapped.  --trace 1
alternates untraced and traced passes over the corpus and reports the
per-layer metrics of the traced passes plus the tracing overhead.  The
lines before the last are a readable report; the last line is one JSON
object with the keys correct, attempted, failed and metrics.  Every
result is checked after the timed section; a failed check counts as a
failed operation.  perfbench/README.md defines each metric.
"""

import argparse
import ctypes
import dataclasses
import glob
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

from reference import NOMINAL_S, Reference
from tracing import Tracer, layer_metrics, median_or_zero
from workloads import BNB_GAP_TOL, WORKLOADS, warmup_instance

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUPS = 5  # set-ups per run; setup_s is their median
SLACK_SEED = 0  # sample seed of the bound_slack_p50 metric
TAIL_BEYOND = 10  # the tail percentile keeps this many samples above it
# Per-layer counts that must repeat exactly from one traced pass to the next.
EXACT = ("barrier.newton_steps", "barrier.outer_iters", "barrier.stalled", "barrier.failed",
         "bnb.error_nodes", "simplex.lp_calls", "simplex.pivots", "relaxation.nvar_max",
         "certify.repair_failures")

# Unit of every per-layer metric.
LAYER_UNITS = {
    "barrier.s": "s", "barrier.share": "ratio", "barrier.ms_per_newton": "ms",
    "barrier.newton_steps": "count", "barrier.outer_iters": "count",
    "barrier.stalled": "count", "barrier.failed": "count",
    "bnb.newton_per_node": "count", "bnb.node_solve_s": "s", "bnb.self_s": "s",
    "bnb.prepare_root_s": "s", "bnb.error_nodes": "count",
    "bnb.gap_demo": "abs", "bnb.gap_hard": "abs",
    "covers.s": "s", "simplex.s": "s", "simplex.lp_calls": "count", "simplex.pivots": "count",
    "relaxation.s": "s", "relaxation.nvar_p50": "count", "relaxation.nvar_max": "count",
    "relaxation.rows_p50": "count", "relaxation.circuits_p50": "count",
    "certify.repair_s": "s", "certify.repair_failures": "count",
    "certify.gamma_loss_p50": "ratio", "certify.strict_s": "s",
    "certify.strict_failures": "count", "certify.strict_loss_p50": "ratio",
    "pipeline.self_s": "s",
    "trace.overhead_s": "s", "trace.overhead_share": "ratio",
}


def import_package():
    """Import soncbound afresh from ./src (earlier imports are dropped)."""
    for name in [m for m in sys.modules if m == "soncbound" or m.startswith("soncbound.")]:
        del sys.modules[name]
    sb = importlib.import_module("soncbound")
    if SRC not in Path(sb.__file__).resolve().parents:
        raise ImportError(f"soncbound was imported from {sb.__file__}, not from {SRC}")
    return sb


def set_up(workload, corpus_seed: int, limit: int):
    """Import, build the corpus and solve the warm-up instance, SETUPS times.

    Returns the last set-up's package and operations and the median time.
    """
    times = []
    for _ in range(SETUPS):
        start = time.perf_counter()
        sb = import_package()
        items = workload.build(sb, corpus_seed)[: limit or None]
        sb.solve_instance(warmup_instance(sb))
        times.append(time.perf_counter() - start)
    return sb, items, statistics.median(times)


def blas_threads(np):
    """Threads the OpenBLAS bundled with numpy will use; None if it cannot be asked."""
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def environment(np) -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"python {platform.python_version()}, numpy {np.__version__}, "
            f"blas {blas.get('name')} {blas.get('version')}, "
            f"blas threads {blas_threads(np)} (OPENBLAS_NUM_THREADS="
            f"{os.environ['OPENBLAS_NUM_THREADS']}), {os.cpu_count()} cpus")


def signature(result) -> tuple:
    """What a repeat of the same operation must reproduce exactly."""
    if hasattr(result, "incumbent_value"):
        return (result.status, result.lower_bound, result.incumbent_value, result.nodes,
                result.error_nodes)
    return (result.status, result.gamma_solver, result.gamma_certified,
            result.solve.iterations if result.solve else None)


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest sample with TAIL_BEYOND samples above it.

    With too few samples for that, the slowest sample (percentile 100).
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


class Run:
    """The operations of one workload, their timings and their checks."""

    def __init__(self, sb, workload, items, seed: int, reference: Reference):
        self.sb = sb
        self.reference = reference
        self.workload = workload
        self.items = items
        self.seed = seed
        self.first: dict = {}  # key -> first result
        self.calls: dict[str, list[float]] = {}  # key -> untraced seconds per call
        self.nodes: dict[tuple[str, int], list[float]] = {}  # (key, node) -> seconds
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []  # (failed operation, message)

    def fail(self, operation: str, message: str) -> None:
        self.failures.append((operation, message))

    def failed(self) -> int:
        """Failed operations: each failed call, and each operation failing a check."""
        return min(len({operation for operation, _ in self.failures}), self.attempted)

    def bnb_args(self, item, log):
        return dict(max_nodes=item.max_nodes, gap_tol=BNB_GAP_TOL, seed=self.seed, log=log)

    def operation(self, item, tracer=None) -> float:
        """One timed public call; returns its seconds (0 when it raised)."""
        marks: list[float] = []
        if item.max_nodes:
            fn = self.sb.solve_bnb
            kwargs = self.bnb_args(item, lambda _line: marks.append(time.perf_counter()))
        else:
            fn, kwargs = self.sb.solve_instance, {}
        self.attempted += 1
        start = time.perf_counter()
        try:
            if tracer is None:
                result = fn(item.inst, item.options, **kwargs)
            else:
                result = tracer.call(fn.__name__, fn, item.inst, item.options, **kwargs)
        except Exception as exc:  # a public entry point must not raise: count it
            self.fail(f"{item.key}#{self.attempted}", f"{type(exc).__name__}: {exc}")
            self.reference.follow(0.0)
            return 0.0
        seconds = time.perf_counter() - start
        self.reference.follow(seconds)
        if tracer is None:
            self.calls.setdefault(item.key, []).append(seconds)
            previous = start
            for index, mark in enumerate(marks):
                self.nodes.setdefault((item.key, index), []).append(mark - previous)
                previous = mark
        if item.key not in self.first:
            self.first[item.key] = result
        elif signature(self.first[item.key]) != signature(result):
            self.fail(f"{item.key}#{self.attempted}", "a repeat gave a different result")
        return seconds

    def one_pass(self, tracer=None, deadline=None) -> tuple[float, bool]:
        """Every operation once, in order; stops early rather than overrun deadline."""
        total = 0.0
        for item in self.items:
            if deadline is not None:
                expected = median_or_zero(self.calls.get(item.key, []))
                if time.perf_counter() + expected > deadline:
                    return total, False
            total += self.operation(item, tracer)
        return total, True

    def measure(self, seconds: float) -> int:
        """Untraced passes until the time is up; the first pass always completes."""
        deadline = time.perf_counter() + seconds
        passes = 0
        while True:
            _, complete = self.one_pass(deadline=deadline if passes else None)
            passes += complete
            if not complete or time.perf_counter() >= deadline:
                return passes

    def measure_traced(self, seconds: float, span_log: list | None):
        """Pairs of an untraced and a traced pass while another pair fits the time.

        Returns the per-layer metrics (median over the traced passes) and
        the tracing overhead per pair.
        """
        deadline = time.perf_counter() + seconds
        tracer = Tracer()
        layers, overheads = [], []
        while True:
            started = time.perf_counter()
            untraced, _ = self.one_pass()
            tracer.install(self.sb)
            try:
                traced, _ = self.one_pass(tracer)
            finally:
                tracer.uninstall()
            spans = tracer.take()
            if span_log is not None:
                span_log.extend(spans)
            layers.append(layer_metrics(spans, self.bnb_gaps()))
            overheads.append((traced - untraced, traced / untraced - 1.0))
            now = time.perf_counter()
            if now + (now - started) > deadline:
                break
        for name in EXACT:
            if len({layer[name] for layer in layers}) > 1:
                self.fail(name, "differs between traced passes")
        merged = {name: median_or_zero([layer[name] for layer in layers]) for name in layers[0]}
        merged["trace.overhead_s"] = median_or_zero([o[0] for o in overheads])
        merged["trace.overhead_share"] = median_or_zero([o[1] for o in overheads])
        return merged, len(layers)

    def bnb_gaps(self) -> dict[str, float]:
        return {item.key: self.first[item.key].incumbent_value
                - self.first[item.key].lower_bound
                for item in self.items if item.max_nodes and item.key in self.first}

    # -- checks, outside every timed section -------------------------------

    def check(self) -> dict:
        out = {"optimal": 0, "strict_ok": 0, "strict_failures": 0, "strict_s": 0.0,
               "unsound": 0, "slacks": [], "strict_losses": []}
        for item in self.items:
            result = self.first.get(item.key)
            if result is None:
                continue
            if item.max_nodes:
                self.check_bnb(item, result, out)
                continue
            if item.expect_status and result.status != item.expect_status:
                self.fail(item.key, f"status {result.status}, expected {item.expect_status}")
            slack = self.check_solve(item.key, item.inst, result, out)
            if slack is not None:
                out["slacks"].append(slack)
        return out

    def check_solve(self, key, inst, result, out) -> float | None:
        """strict <= certified <= solver and a seeded sampled soundness check.

        Returns the relative slack min f(sample) - gamma, or None.
        """
        sb = self.sb
        if result.status != sb.status.OPTIMAL:
            return None
        out["optimal"] += 1
        certified, solver = result.gamma_certified, result.gamma_solver
        if certified is None or not certified <= solver:
            self.fail(key, f"certified {certified} not <= solver {solver}")
            return None
        start = time.perf_counter()
        try:
            strict = sb.strict_gamma(result.model, result.certificate)
        except sb.RepairFailure:
            out["strict_failures"] += 1
        else:
            out["strict_ok"] += 1
            out["strict_losses"].append((certified - float(strict)) / (1.0 + abs(certified)))
            if not strict <= Fraction(certified):
                self.fail(key, f"strict {float(strict)} above {certified}")
        out["strict_s"] += time.perf_counter() - start
        # Fresh points from the run's seed; fixed points for the slack metric,
        # so that it compares across runs.
        for seed in (self.seed, SLACK_SEED):
            report = sb.sample_soundness_check(inst, certified, k=self.workload.samples,
                                               seed=seed)
            out["unsound"] += report.violations
            if not report.ok():
                self.fail(key, f"{report.violations} sampled points (seed {seed}) "
                          f"below {certified}")
        if report.min_slack is None:
            return None
        return report.min_slack / (1.0 + abs(certified))

    def check_bnb(self, item, result, out) -> None:
        """Bound <= incumbent, bound sound on samples, every node re-checked.

        The run is replayed with solve_on_box wrapped to keep each node's
        box and result; the replay must reproduce the timed result.
        """
        sb = self.sb
        lower, incumbent = result.lower_bound, result.incumbent_value
        if not lower <= incumbent:
            self.fail(item.key, f"bound {lower} above incumbent {incumbent}")
        out["slacks"].append((incumbent - lower) / (1.0 + abs(lower)))
        if math.isfinite(lower):
            report = sb.sample_soundness_check(item.inst, lower, seed=self.seed)
            out["unsound"] += report.violations
            if not report.ok():
                self.fail(item.key, f"B&B bound {lower} fails sampling")
        captured = []
        original = sb.bnb.solve_on_box

        def capture(root, box_lower, box_upper):
            node = original(root, box_lower, box_upper)
            captured.append((box_lower, box_upper, node))
            return node

        sb.bnb.solve_on_box = capture
        try:
            replay = sb.solve_bnb(item.inst, item.options, **self.bnb_args(item, None))
        finally:
            sb.bnb.solve_on_box = original
        if signature(replay) != signature(result):
            self.fail(item.key, "the B&B replay differs")
        for index, (box_lower, box_upper, node) in enumerate(captured):
            box = dataclasses.replace(item.inst, lower=tuple(box_lower),
                                      upper=tuple(box_upper))
            self.check_solve(f"{item.key}/node{index}", box, node, out)

    # -- metrics --------------------------------------------------------------

    def end_to_end(self, setup_s: float, checks: dict) -> tuple[dict, list[str]]:
        """The end-to-end metrics, and report lines for the ones not gated.

        Times are scaled to the nominal host speed (see reference.py).
        """
        scale = self.reference.scale()
        per_call = {key: statistics.median(v) for key, v in self.calls.items()}
        bnb = [self.first[i.key] for i in self.items if i.max_nodes and i.key in self.first]
        if bnb:
            work = sum(r.nodes for r in bnb)
            attempts = work
            good = sum(r.nodes - r.error_nodes for r in bnb)
            latencies = [statistics.median(v) for v in self.nodes.values()]
        else:
            work = len(per_call)
            timed = [i for i in self.items if i.latency and i.key in self.first]
            attempts = len(timed)
            good = sum(1 for i in timed if self.first[i.key].status == self.sb.status.OPTIMAL
                       and self.first[i.key].gamma_certified is not None)
            latencies = [per_call[i.key] for i in timed]
        tail_s, tail_pct = tail(latencies)
        rate = work / sum(per_call.values())
        p50_s = statistics.median(latencies)
        metrics = {
            "setup_s": (setup_s * scale, "s"),
            "solves_per_s": (rate / scale, "1/s"),
            "solve_p50_ms": (1e3 * p50_s * scale, "ms"),
            "solve_tail_ms": (1e3 * tail_s * scale, "ms"),
            "optimal_share": (good / attempts, "ratio"),
            "strict_ok_share": (checks["strict_ok"] / checks["optimal"]
                                if checks["optimal"] else 0.0, "ratio"),
            "bound_slack_p50": (median_or_zero(checks["slacks"]), "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        notes = [f"solve_tail_ms is p{tail_pct:.1f} of {len(latencies)} "
                 f"{'node' if bnb else 'default-configuration'} latencies",
                 f"as measured, before scaling: setup_s {setup_s:.6g} s, solves_per_s "
                 f"{rate:.6g} 1/s, solve_p50_ms {1e3 * p50_s:.6g} ms, "
                 f"solve_tail_ms {1e3 * tail_s:.6g} ms",
                 f"unsound {checks['unsound']} count"]
        if bnb:
            notes.append(f"nodes_per_s {rate / scale} 1/s")
            notes.extend(f"bnb_gap.{key} {gap} abs" for key, gap in self.bnb_gaps().items())
        return metrics, notes


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="orders the operations and seeds all sampling")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corpus-seed", type=int, default=None,
                        help="first generator seed of the corpus (default: the ROADMAP one)")
    parser.add_argument("--items", type=int, default=0,
                        help="keep only the first N operations of the corpus (0: all)")
    parser.add_argument("--spans", default=None,
                        help="with --trace 1, write every span to this file as JSON lines")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "soncbound" / "__init__.py").is_file():
        print(f"error: no soncbound sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    corpus_seed = workload.corpus_seed if args.corpus_seed is None else args.corpus_seed

    # One BLAS thread, set before numpy is first imported: the thread count
    # changes the barrier's iterate path, not only its speed.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    start = time.perf_counter()
    import numpy as np

    numpy_s = time.perf_counter() - start
    sb, items, setup_s = set_up(workload, corpus_seed, args.items)
    random.Random(args.seed).shuffle(items)
    reference = Reference(np)
    reference.kernel()  # untimed first call
    run = Run(sb, workload, items, args.seed, reference)

    print(f"workload {workload.name}: {len(items)} operations, corpus seed {corpus_seed}, "
          f"seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print(f"environment: {environment(np)}; numpy import {numpy_s:.3f} s")
    if args.trace:
        span_log = [] if args.spans else None
        layers, passes = run.measure_traced(args.seconds, span_log)
        checks = run.check()
        layers["certify.strict_s"] = checks["strict_s"]
        layers["certify.strict_failures"] = checks["strict_failures"]
        layers["certify.strict_loss_p50"] = median_or_zero(checks["strict_losses"])
        scale = reference.scale()
        metrics = {name: (value * scale if LAYER_UNITS[name] in ("s", "ms") else value,
                          LAYER_UNITS[name]) for name, value in layers.items()}
        notes = [f"{passes} untraced + {passes} traced passes; per-layer times are "
                 "inclusive seconds per pass (simplex.s is part of covers.s)"]
        if span_log is not None:
            with open(args.spans, "w") as fh:
                for span in span_log:
                    fh.write(json.dumps(dataclasses.asdict(span)) + "\n")
    else:
        passes = run.measure(args.seconds)
        checks = run.check()
        metrics, notes = run.end_to_end(setup_s, checks)
        notes.insert(0, f"{passes} complete passes")

    samples = reference.samples
    notes.append(f"reference kernel: mean {1e3 * sum(samples) / len(samples):.4f} ms over "
                 f"{len(samples)} calls; times are scaled by {reference.scale():.4f} to a "
                 f"host where it takes {1e3 * NOMINAL_S:g} ms")
    statuses = {key: result.status for key, result in sorted(run.first.items())}
    digest = hashlib.sha256(json.dumps(statuses).encode()).hexdigest()[:16]
    print(f"statuses {json.dumps(dict(Counter(statuses.values())))} digest {digest}")
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    for operation, message in run.failures[:20]:
        print(f"FAILED {operation}: {message}")
    failed = run.failed()
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
