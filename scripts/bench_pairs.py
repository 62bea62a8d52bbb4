#!/usr/bin/env python3
"""Compare two source trees on benchmark workloads, in alternating pairs.

Runs `perfbench/run.py` from each tree once per seed and workload, the
two runs of a pair back to back and the tree that goes first switching
from pair to pair, so drift in the host's speed falls on both sides
alike.  With several workloads (comma-separated), each seed runs one
pair of every workload in turn, so drift spreads over all of them.
Only the last line of each run's output (its JSON summary) is read.
For every workload and metric the report gives each side's median and
quartiles, and the number of pairs the change wins in the direction
`BENCHMARK.json` names.  A gain is claimed when the change wins at least
90% of the pairs (9 of 10) and its median lies beyond the parent's
interquartile range.

    python scripts/bench_pairs.py PARENT_TREE CHANGE_TREE --workload acceptance,wide
        [--pairs 10] [--seconds 25] [--trace 0] [--seed0 0] [--corpus-seed N]
        [--out pairs.json]

--out writes the arguments and every run's JSON summary, per workload.

Each tree is a source checkout (with `src/` and `perfbench/`); nothing
in either tree is changed.  --corpus-seed passes through to
`perfbench/run.py`, so that a claim can be checked again on instances
not used while writing the change (default: the workload's own corpus).
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9  # share of pairs the change must win


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int,
             corpus_seed: int | None = None) -> dict:
    """The JSON summary (last output line) of one benchmark run in tree."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if corpus_seed is not None:
        cmd += ["--corpus-seed", str(corpus_seed)]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{tree}: exit {out.returncode}\n{out.stderr[-2000:]}")
    return json.loads(lines[-1])


def directions() -> dict[str, str]:
    """Metric name -> "higher" or "lower", as BENCHMARK.json declares."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"]
            for m in bench.get("end_to_end", []) + bench.get("per_layer", [])}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str | None) -> tuple[str, str]:
    """(win count, claim verdict) of change against parent, pair by pair."""
    if better is None:
        return "-", "-"
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    q1, med_p, q3 = quartiles(parent)
    med_c = statistics.median(change)
    beyond = sign * (med_c - med_p) > q3 - q1
    holds = wins >= math.ceil(WIN_SHARE * len(parent)) and beyond
    return f"{wins}/{len(parent)}", "gain" if holds else "-"


def report(runs: list[dict]) -> None:
    better = directions()
    names = sorted(set.intersection(*(set(r["parent"]["metrics"]) & set(r["change"]["metrics"])
                                      for r in runs)))
    print(f"{'metric':32s} {'parent median [q1, q3]':>34s} {'change median [q1, q3]':>34s} "
          f"{'wins':>6s} claim")
    for name in names:
        sides = {side: [r[side]["metrics"][name]["value"] for r in runs]
                 for side in ("parent", "change")}
        cells = []
        for side in ("parent", "change"):
            q1, med, q3 = quartiles(sides[side])
            cells.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}]")
        wins, claim = verdict(sides["parent"], sides["change"], better.get(name))
        print(f"{name:32s} {cells[0]:>34s} {cells[1]:>34s} {wins:>6s} {claim}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="source tree of the parent")
    parser.add_argument("change", type=Path, help="source tree of the change")
    parser.add_argument("--workload", required=True,
                        help="workload name, or several names separated by commas")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seed0", type=int, default=0, help="seed of the first pair")
    parser.add_argument("--corpus-seed", type=int, default=None,
                        help="corpus seed for perfbench/run.py (default: the workload's)")
    parser.add_argument("--out", type=Path, default=None,
                        help="write every run's JSON summary to this file")
    args = parser.parse_args()

    runs = {name: [] for name in args.workload.split(",")}
    for i in range(args.pairs):
        seed = args.seed0 + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for workload, pairs in runs.items():
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(getattr(args, side).resolve(), workload, seed,
                                      args.seconds, args.trace, args.corpus_seed)
            pairs.append(pair)
            correct = pair["parent"]["correct"] and pair["change"]["correct"]
            print(f"{workload} pair {i + 1}/{args.pairs}: seed {seed}, {order[0]} first, "
                  f"{'correct' if correct else 'FAILED OPERATIONS'}", flush=True)
    if args.out is not None:
        settings = {k: v for k, v in vars(args).items() if k not in ("parent", "change", "out")}
        args.out.write_text(json.dumps({"args": settings, "runs": runs}, indent=1))
    for workload, pairs in runs.items():
        print(f"\n{workload}")
        report(pairs)
    return 0 if all(r["parent"]["correct"] and r["change"]["correct"]
                    for pairs in runs.values() for r in pairs) else 1


if __name__ == "__main__":
    sys.exit(main())
