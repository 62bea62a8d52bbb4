"""The benchmark's workloads: fixed corpora of public soncbound calls.

Each builder receives the freshly imported ``soncbound`` package and a
corpus seed, and returns the operations of one pass.  The default corpus
seeds reproduce the corpora named in ROADMAP.md, so every figure is
measured on the same instances; the run's ``--seed`` only orders the
operations and seeds the sampling (see run.py).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable

BNB_NODES = 40  # node budget of every solve_bnb operation
BNB_GAP_TOL = 1e-6  # the `sonc-bound bnb` default
# x^2 - x^4 on [-1, 1] with exponents (4,): the relaxation cannot localize,
# so the bound stays at -1.0 while the true minimum is 0.
HARD_BNB = {"n": 1, "objective": [[[2], 1.0], [[4], -1.0]], "constraints": [],
            "lower": [-1], "upper": [1]}


@dataclass(frozen=True)
class Item:
    """One timed operation: a solve_instance call, or a solve_bnb run."""

    key: str
    inst: Any  # soncbound.PopInstance
    options: Any  # soncbound.PipelineOptions
    latency: bool = True  # a default-configuration solve: counts for latency and shares
    expect_status: str | None = None  # every result must carry this status
    max_nodes: int = 0  # > 0 makes this a solve_bnb run with that node budget


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    corpus_seed: int  # default; reproduces the ROADMAP corpus
    build: Callable[[Any, int], list[Item]]
    samples: int  # points per sample_soundness_check


def _acceptance(sb, base: int) -> list[Item]:
    """Seeds base..base+99 with n=1+i%3, m=i%3, degree 3+i%4, in both configurations."""
    vanilla = sb.PipelineOptions(use_bound_constraints=False)
    items = []
    for i in range(100):
        seed = base + i
        inst = sb.generate_instance(seed, n=1 + i % 3, m=i % 3, max_degree=3 + i % 4,
                                    density=0.5)
        items.append(Item(f"s{seed}/with-bcs", inst, sb.PipelineOptions()))
        items.append(Item(f"s{seed}/without-bcs", inst, vanilla, latency=False,
                          expect_status=sb.status.COVER_UNAVAILABLE))
    return items


def _wide(sb, base: int) -> list[Item]:
    """n=6, m=1, density 2.0, degree 4 and 5, generator seed base."""
    return [
        Item(f"s{base}/n6-d{degree}",
             sb.generate_instance(base, n=6, m=1, max_degree=degree, density=2.0),
             sb.PipelineOptions())
        for degree in (4, 5)
    ]


def _highdeg(sb, base: int) -> list[Item]:
    """(n, degree, m) in {(2,8,1), (4,8,2), (1,12,0)}, seeds base..base+19 each."""
    return [
        Item(f"s{seed}/n{n}-d{degree}-m{m}",
             sb.generate_instance(seed, n=n, m=m, max_degree=degree),
             sb.PipelineOptions())
        for n, degree, m in ((2, 8, 1), (4, 8, 2), (1, 12, 0))
        for seed in range(base, base + 20)
    ]


def _bnb(sb, demo_seed: int) -> list[Item]:
    """The run_bnb_demo instance and the non-localizing instance, B&B solver options."""
    solver = sb.SolverOptions(tol_gap=1e-8, tol_kkt=1e-5)
    demo = sb.generate_instance(demo_seed, n=2, m=1, max_degree=4)
    hard = sb.parse_instance(json.dumps(HARD_BNB))
    return [
        Item("demo", demo, sb.PipelineOptions(solver=solver), max_nodes=BNB_NODES),
        Item("hard", hard, sb.PipelineOptions(solver=solver, exponents=(4,)),
             max_nodes=BNB_NODES),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "acceptance",
            "Many small models (median 19 variables): the barrier's per-step Python "
            "overhead sets the time; both configurations' cover LPs run beside it.",
            1000, _acceptance, 1000),
        Workload(
            "wide",
            "Two large models (175 and 235 variables): dense Hessian assembly, the "
            "identity cap rows and the linear solves set the time.",
            0, _wide, 4000),
        Workload(
            "highdeg",
            "Degree 8-12: half the solves end in numerical-error, mostly stalls in the "
            "first centering, so it measures the barrier's failure path and robustness.",
            0, _highdeg, 1000),
        Workload(
            "bnb",
            "solve_bnb to a 40-node budget on the demo and the non-localizing instance: "
            "covers are built once and the node barrier takes the time.",
            1002, _bnb, 200),
    )
}


def warmup_instance(sb):
    """The small instance solved once, untimed, at the end of every set-up."""
    return sb.generate_instance(1000, n=1, m=0, max_degree=3, density=0.5)
