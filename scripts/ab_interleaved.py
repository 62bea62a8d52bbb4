#!/usr/bin/env python3
"""Time two source trees on one benchmark corpus, interleaved in one process.

Loads `src/soncbound` of tree A twice and of tree B once, each under its
own package name, and runs every operation of one `perfbench/workloads.py`
corpus on the three packages in turn: A, its copy A2, then B, with the
order reversed on every other pass.  Drift in the host's speed, which
separate benchmark processes see as run-to-run spread, then falls on the
three packages within seconds of each other.  Per pass it prints each
package's seconds and two speed ratios, t_A / t_B (above 1: B is faster)
and the A/A control t_A / t_A2, whose spread is the resolution of the
measurement.  The summary gives the median and range of both ratios over
the timed passes, and over pairs of consecutive passes, which run each
package once in each order, so that a cost of going first or last
cancels.  One untimed warm-up pass comes first.  On the `bnb` workload
each run also logs its nodes, as `perfbench/run.py` does, and the summary
gives each package's median node latency (the median over nodes of each
node's median over the timed passes, as the benchmark's `solve_p50_ms`)
with its B/A and A/A ratios.

    python scripts/ab_interleaved.py TREE_A TREE_B --workload acceptance
        [--passes 10] [--corpus-seed N]

Each package builds the corpus with its own generator, so both trees
solve the same instances when their generators agree; the count of
operations whose status differs between A and B is printed too.  Every
call runs with one BLAS thread, as `perfbench/run.py` does.  The
benchmark of record stays `perfbench/run.py` and its pairs
(`scripts/bench_pairs.py`); this script resolves the smaller speed
differences that those separate processes cannot.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BNB_SEED = 1  # solve_bnb's sampling seed for bnb operations


def load_package(tree: Path, name: str):
    """tree's src/soncbound imported as the package name."""
    src = tree.resolve() / "src" / "soncbound"
    spec = importlib.util.spec_from_file_location(
        name, src / "__init__.py", submodule_search_locations=[str(src)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def call(sb, item, gap_tol: float):
    """One operation of the corpus on package sb: (seconds, status, the
    seconds of each B&B node, from the log line before it to its own)."""
    marks = [time.perf_counter()]

    def log(_line):
        marks.append(time.perf_counter())

    if item.max_nodes:
        result = sb.solve_bnb(item.inst, item.options, max_nodes=item.max_nodes,
                              gap_tol=gap_tol, seed=BNB_SEED, log=log)
    else:
        result = sb.solve_instance(item.inst, item.options)
    seconds = time.perf_counter() - marks[0]
    return seconds, result.status, [b - a for a, b in zip(marks, marks[1:])]


def spread(values: list[float]) -> str:
    return f"median {statistics.median(values):.4f} (range {min(values):.4f}-{max(values):.4f})"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree_a", type=Path, help="source tree A (the parent)")
    parser.add_argument("tree_b", type=Path, help="source tree B (the change)")
    parser.add_argument("--workload", required=True, help="a perfbench/workloads.py name")
    parser.add_argument("--passes", type=int, default=10, help="timed passes")
    parser.add_argument("--corpus-seed", type=int, default=None,
                        help="corpus seed (default: the workload's own)")
    args = parser.parse_args()

    # One BLAS thread, set before numpy is first imported.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    seed = workload.corpus_seed if args.corpus_seed is None else args.corpus_seed
    packages = [load_package(tree, f"soncbound_ab_{i}")
                for i, tree in enumerate((args.tree_a, args.tree_a, args.tree_b))]
    corpora = [workload.build(sb, seed) for sb in packages]
    print(f"workload {workload.name}: {len(corpora[0])} operations, corpus seed {seed}, "
          f"{args.passes} timed passes after one warm-up")
    print(f"{'pass':>4s} {'A s':>9s} {'A2 s':>9s} {'B s':>9s} {'B/A speed':>10s} "
          f"{'A/A control':>12s}")

    ratios, controls, totals, differ = [], [], [], 0
    nodes = [{}, {}, {}]  # per package: (operation, node index) -> seconds per pass
    for p in range(args.passes + 1):
        order = (0, 1, 2) if p % 2 else (2, 1, 0)
        seconds = [0.0, 0.0, 0.0]
        statuses = [[], [], []]
        for items in zip(*corpora):
            for k in order:
                s, status, node_seconds = call(packages[k], items[k], workloads.BNB_GAP_TOL)
                seconds[k] += s
                statuses[k].append(status)
                if p:
                    for index, t in enumerate(node_seconds):
                        nodes[k].setdefault((items[k].key, index), []).append(t)
        if p == 0:
            differ = sum(a != b for a, b in zip(statuses[0], statuses[2]))
            continue
        totals.append(seconds)
        ratios.append(seconds[0] / seconds[2])
        controls.append(seconds[0] / seconds[1])
        print(f"{p:4d} {seconds[0]:9.3f} {seconds[1]:9.3f} {seconds[2]:9.3f} "
              f"{ratios[-1]:10.4f} {controls[-1]:12.4f}")
    print(f"B/A speed (t_A / t_B): {spread(ratios)}")
    print(f"A/A control (t_A / t_A2): {spread(controls)}")
    # Two consecutive passes run each package once in each order.
    pairs = [[a + b for a, b in zip(*totals[i:i + 2])] for i in range(0, len(totals) - 1, 2)]
    if pairs:
        print(f"per pair of passes: B/A {spread([t[0] / t[2] for t in pairs])}, "
              f"A/A {spread([t[0] / t[1] for t in pairs])}")
    if nodes[0]:
        p50 = [statistics.median(statistics.median(v) for v in side.values()) for side in nodes]
        print(f"median node latency over {len(nodes[0])} nodes: A {1e3 * p50[0]:.4f} ms, "
              f"A2 {1e3 * p50[1]:.4f} ms, B {1e3 * p50[2]:.4f} ms; B/A (p50_A / p50_B) "
              f"{p50[0] / p50[2]:.4f}, A/A control (p50_A / p50_A2) {p50[0] / p50[1]:.4f}")
    print(f"operations whose status differs between A and B: {differ} of {len(corpora[0])}")
    print(f"A = {packages[0].__file__}, B = {packages[2].__file__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
