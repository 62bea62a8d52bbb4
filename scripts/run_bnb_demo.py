#!/usr/bin/env python3
"""Branch-and-bound demo on a generated two-variable instance.

Shows the per-node log and how many distinct node relaxations were
solved.  A node's bound changes only where a split lowers some big-M
value M_i = max(|l_i|, |u_i|); on the default instance all 40 nodes
share the root's M vector, so one relaxation is solved and the bound
stays at the root's.
"""

import argparse

from soncbound.barrier import SolverOptions
from soncbound.bnb import solve_bnb
from soncbound.generator import generate_instance
from soncbound.pipeline import PipelineOptions


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
    result = solve_bnb(
        inst, options, max_nodes=args.max_nodes, gap_tol=args.gap_tol, seed=0, log=print
    )
    print()
    print(f"status:      {result.status}")
    print(f"lower bound: {result.lower_bound:.8f}")
    print(f"incumbent:   {result.incumbent_value:.8f} at {result.incumbent_point}")
    print(f"nodes:       {result.nodes} ({result.error_nodes} without usable bound)")
    print(f"relaxations: {result.relaxations_solved} distinct solved")


if __name__ == "__main__":
    main()
