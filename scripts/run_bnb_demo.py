#!/usr/bin/env python3
"""Branch-and-bound demo on a generated instance (two variables by default).

Prints the per-node log, then how many distinct node relaxations were
solved, how many of those started warm from the central path of the
last one (see the README's "Branch and bound") and the Newton steps
they took in all.  A node's bound changes only where a split lowers
some big-M value M_i = max(|l_i|, |u_i|); on the default instance all
40 nodes share the root's M vector, so one relaxation is solved, none
starts warm, and the bound stays at the root's.
"""

import argparse
from collections import Counter

from soncbound import pipeline
from soncbound.barrier import START_WARM, SolverOptions
from soncbound.bnb import solve_bnb
from soncbound.generator import generate_instance
from soncbound.pipeline import PipelineOptions


def count_relaxations(counts: Counter) -> None:
    """Make every relaxation the pipeline solves add its Newton steps and
    whether it started warm to counts."""
    solve_relaxation = pipeline.solve_relaxation

    def counted(*args, **kwargs):
        res = solve_relaxation(*args, **kwargs)
        counts["newton"] += res.iterations
        counts["warm"] += res.start == START_WARM
        return res

    pipeline.solve_relaxation = counted


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=1002)
    parser.add_argument("--n", type=int, default=2)
    parser.add_argument("--max-degree", type=int, default=4)
    parser.add_argument("--max-nodes", type=int, default=40)
    parser.add_argument("--gap-tol", type=float, default=1e-4)
    args = parser.parse_args()

    inst = generate_instance(args.seed, n=args.n, m=1, max_degree=args.max_degree)
    options = PipelineOptions(solver=SolverOptions(tol_gap=1e-8, tol_kkt=1e-5))
    counts = Counter()
    count_relaxations(counts)
    result = solve_bnb(
        inst, options, max_nodes=args.max_nodes, gap_tol=args.gap_tol, seed=0, log=print
    )
    print()
    print(f"status:      {result.status}")
    print(f"lower bound: {result.lower_bound:.8f}")
    print(f"incumbent:   {result.incumbent_value:.8f} at {result.incumbent_point}")
    print(f"nodes:       {result.nodes} ({result.error_nodes} without usable bound)")
    print(f"relaxations: {result.relaxations_solved} distinct solved, {counts['warm']} started "
          f"warm, {counts['newton']} Newton steps")


if __name__ == "__main__":
    main()
