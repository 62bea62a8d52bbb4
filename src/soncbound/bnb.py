"""Spatial branch-and-bound over the variable box.

Best-first search using the relaxation as bounding oracle.  The
exponents and covers stay fixed from the root; a node's model sees its
box only through the big-M values M_i = max(|l_i|, |u_i|) of the bound
constraints.  A child that keeps its parent's M vector (a split that
leaves the largest-magnitude endpoint of every coordinate in place)
therefore has its parent's relaxation, and solve_on_box returns the
stored result: each distinct M vector is solved once per run, and the
bound tightens only where a split lowers some M_i.  A relaxation after
the root's first starts warm on the central path of the last one solved,
in a dive its parent's (pipeline, barrier), so its Newton steps follow
how far M moved: on x^2 - x^4 over [-1, 1], 1 step for the 8 later
relaxations together, against 21 each cold.  Incumbents come from
seeded sampling plus the box corners and center.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from . import status as st
from .pipeline import PREPARE_ERRORS, PipelineOptions, failure_result, prepare_root, solve_on_box
from .poly import PopInstance, evaluate_points

WIDTH_EPS = 1e-9  # boxes thinner than this are leaves
SAMPLES_PER_NODE = 200
ERROR_DEPTH_CAP = 20  # nodes without a usable bound stop branching here

GAP_REACHED = "gap-reached"
NODE_LIMIT = "node-limit"
EXHAUSTED = "exhausted"


@dataclass(frozen=True)
class BnbNode:
    node_id: int
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    depth: int
    parent_bound: float  # effective bound inherited from the parent


@dataclass(frozen=True)
class NodeRecord:
    node_id: int
    depth: int
    parent_bound: float
    computed_bound: float | None  # this node's own certified bound
    effective_bound: float  # max(parent_bound, computed_bound)
    status: str


@dataclass(frozen=True)
class BnbResult:
    lower_bound: float
    incumbent_value: float
    incumbent_point: tuple[float, ...] | None
    nodes: int
    status: str
    error_nodes: int = 0
    records: tuple[NodeRecord, ...] = ()
    relaxations_solved: int = 0  # distinct node relaxations solved; the rest reused one


def branch(node: BnbNode) -> tuple[BnbNode, BnbNode] | None:
    """Bisect the widest coordinate; None when the box is a point."""
    widths = [hi - lo for lo, hi in zip(node.lower, node.upper)]
    widest = max(range(len(widths)), key=lambda i: (widths[i], -i))
    if widths[widest] <= WIDTH_EPS:
        return None
    mid = 0.5 * (node.lower[widest] + node.upper[widest])
    left_upper = list(node.upper)
    left_upper[widest] = mid
    right_lower = list(node.lower)
    right_lower[widest] = mid
    left = BnbNode(-1, node.lower, tuple(left_upper), node.depth + 1, node.parent_bound)
    right = BnbNode(-1, tuple(right_lower), node.upper, node.depth + 1, node.parent_bound)
    return left, right


def _corners(lower, upper, limit: int = 16):
    pts = [[]]
    for lo, hi in zip(lower, upper):
        pts = [p + [v] for p in pts for v in (lo, hi)]
        if len(pts) > limit:
            return []
    return [tuple(p) for p in pts]


def _seed_words(key: int) -> list[int]:
    """abs(key) as 32-bit words, least significant first: the key that
    random.Random(key) hands to the Mersenne Twister's init_by_array."""
    key = abs(key)
    return [(key >> s) & 0xFFFFFFFF for s in range(0, max(key.bit_length(), 1), 32)]


def _sample_incumbent(inst: PopInstance, node: BnbNode, seed: int,
                      rng: np.random.RandomState | None = None):
    """Best feasible (value, point) among corners, center and samples.

    The samples are random.Random(seed * 1000003 + node_id).uniform
    draws, bit for bit: rng (a new one when None) is seeded with the
    same init_by_array key, and its random_sample uses the same 53-bit
    doubles, in the same order.
    """
    if rng is None:
        rng = np.random.RandomState()
    rng.seed(_seed_words(seed * 1000003 + node.node_id))
    lo, hi = np.array(node.lower), np.array(node.upper)
    points = np.vstack([(lo + hi) / 2.0, *_corners(node.lower, node.upper),
                        lo + (hi - lo) * rng.random_sample((SAMPLES_PER_NODE, len(lo)))])
    values = evaluate_points(inst.objective, points)
    usable = values < math.inf  # NaN never counts as a minimum
    for g in inst.constraints:
        usable &= ~(evaluate_points(g, points) < -1e-9)
    if not usable.any():
        return math.inf, None
    best = int(np.argmin(np.where(usable, values, math.inf)))
    return float(values[best]), tuple(points[best].tolist())


def solve_bnb(
    inst: PopInstance,
    options: PipelineOptions | None = None,
    max_nodes: int = 1000,
    gap_tol: float = 1e-6,
    seed: int = 0,
    log=None,
) -> BnbResult:
    """Best-first branch-and-bound; returns the certified global bound.

    The reported lower bound is the minimum over open and closed leaf
    bounds, so it stays valid whatever stops the search.  When the root
    cannot be prepared, the result is bound -inf with one error node
    whose record carries the mapped status.
    """
    options = options or PipelineOptions()
    try:
        root_struct = prepare_root(inst, options)
    except PREPARE_ERRORS as exc:
        stat = failure_result(exc).status
        if log is not None:
            log(f"node 0 depth 0 bound -inf incumbent inf status {stat}")
        return BnbResult(lower_bound=-math.inf, incumbent_value=math.inf,
                         incumbent_point=None, nodes=1, status=EXHAUSTED, error_nodes=1,
                         records=(NodeRecord(0, 0, -math.inf, None, -math.inf, stat),))

    incumbent_value = math.inf
    incumbent_point = None
    rng = np.random.RandomState()  # re-seeded per node by _sample_incumbent
    next_id = 0
    nodes_solved = 0
    error_nodes = 0
    records: list[NodeRecord] = []
    closed_min = math.inf  # smallest bound of a closed leaf

    heap: list[tuple[float, int, int, BnbNode]] = []

    def push(node: BnbNode):
        nonlocal next_id
        node = BnbNode(next_id, node.lower, node.upper, node.depth, node.parent_bound)
        next_id += 1
        heapq.heappush(heap, (node.parent_bound, -node.depth, node.node_id, node))

    push(BnbNode(0, inst.lower, inst.upper, 0, -math.inf))
    limit_hit = False

    while heap:
        global_bound = min(heap[0][0], closed_min)
        if incumbent_value - global_bound <= gap_tol:
            break
        if nodes_solved >= max_nodes:
            limit_hit = True
            break
        _, _, _, node = heapq.heappop(heap)
        nodes_solved += 1

        res = solve_on_box(root_struct, node.lower, node.upper)
        if res.status == st.OPTIMAL and res.gamma_certified is not None:
            computed = res.gamma_certified
            effective = max(node.parent_bound, computed)
        else:
            computed = None
            effective = node.parent_bound if math.isfinite(node.parent_bound) else -math.inf
            error_nodes += 1

        val, pt = _sample_incumbent(inst, node, seed, rng)
        if val < incumbent_value:
            incumbent_value, incumbent_point = val, pt

        records.append(
            NodeRecord(node.node_id, node.depth, node.parent_bound, computed, effective,
                       res.status)
        )
        if log is not None:
            log(
                f"node {node.node_id} depth {node.depth} bound {effective:.9g} "
                f"incumbent {incumbent_value:.9g} status {res.status}"
            )

        if effective >= incumbent_value - gap_tol:
            closed_min = min(closed_min, effective)
            continue
        if computed is None and node.depth >= ERROR_DEPTH_CAP:
            closed_min = min(closed_min, effective)
            continue
        children = branch(
            BnbNode(node.node_id, node.lower, node.upper, node.depth, effective)
        )
        if children is None:
            closed_min = min(closed_min, effective)
            continue
        for child in children:
            push(child)
    else:
        global_bound = closed_min  # the last node popped closed

    if incumbent_value - global_bound <= gap_tol:
        outcome = GAP_REACHED
    elif limit_hit:
        outcome = NODE_LIMIT
    else:
        outcome = EXHAUSTED

    return BnbResult(
        lower_bound=global_bound,
        incumbent_value=incumbent_value,
        incumbent_point=incumbent_point,
        nodes=nodes_solved,
        status=outcome,
        error_nodes=error_nodes,
        records=tuple(records),
        relaxations_solved=root_struct.relaxations_solved,
    )
