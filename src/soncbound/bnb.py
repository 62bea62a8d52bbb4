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
relaxations together, against 21 each cold.  It also takes the barrier
plan that prepare_root built for the root, with its own big-M values,
where its rows keep the root's nonzero pattern (barrier.phase2_plan): 1
plan build per run there, not 9.  Incumbents come from the box corners
and center and from a node's own block of one seeded PCG64 stream, by a
sampler compiled once per run (_Sampler) that multiplies out x_i**e once
per node: the same floats on every CPU, tested to 1e-12 of evaluate's.
"""

from __future__ import annotations

import heapq
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import status as st
from .pipeline import PREPARE_ERRORS, PipelineOptions, failure_result, prepare_root, solve_on_box
from .poly import PopInstance

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


def branch(node: BnbNode, bound: float, first_id: int) -> tuple[BnbNode, BnbNode] | None:
    """Bisect the widest coordinate into children first_id and first_id + 1
    that inherit bound; None when the box is a point."""
    widths = [hi - lo for lo, hi in zip(node.lower, node.upper)]
    widest = max(range(len(widths)), key=lambda i: (widths[i], -i))
    if widths[widest] <= WIDTH_EPS:
        return None
    mid = 0.5 * (node.lower[widest] + node.upper[widest])
    left_upper = list(node.upper)
    left_upper[widest] = mid
    right_lower = list(node.lower)
    right_lower[widest] = mid
    left = BnbNode(first_id, node.lower, tuple(left_upper), node.depth + 1, bound)
    right = BnbNode(first_id + 1, tuple(right_lower), node.upper, node.depth + 1, bound)
    return left, right


class _Sampler:
    """The incumbent search of one run, compiled once from the instance.

    A node's candidates are its box's center, its corners (for up to 4
    variables) and SAMPLES_PER_NODE samples, each a column of the table
    below.  Node k's samples come from the raw outputs [k S n, (k + 1) S n)
    of the run's one PCG64 (seeded as solve_bnb says), S = SAMPLES_PER_NODE:
    x_i of sample s from output x at k S n + i S + s, as lo_i + (hi_i -
    lo_i) * ((x >> 11) * 2**-53).  advance moves the stream to the block
    (mod 2**128: back too), so the order of the nodes does not matter.

    One table holds x_i**e for every variable and each e up to the
    largest exponent, built per node as x**(e-1) * x: IEEE products give
    the same floats on every CPU, where numpy's pow over negative x
    follows its CPU dispatch.  Then come each term's coefficient and ones.
    A term is the product of its coefficient's row and its powers' rows,
    in variable order, padded with ones; a polynomial's terms are summed
    from 0.0 in term order: poly.evaluate's order, tested to 1e-12 of it.
    """

    def __init__(self, inst: PopInstance, seed: int):
        n, seed = inst.n, operator.index(seed)
        self.bits = np.random.PCG64(2 * seed if seed >= 0 else -2 * seed - 1)
        self.block, self.drawn = SAMPLES_PER_NODE * n, 0  # outputs per node, and drawn so far
        polys = [inst.objective, *inst.constraints]
        degree = max([1] + [e for p in polys for exps in p for e in exps])
        # Each polynomial's terms, led by zero terms to one length.
        length = max(1, *map(len, polys))
        coef, factors = [], []
        for p in polys:
            coef += [0.0] * (length - len(p)) + list(p.values())
            factors += [[]] * (length - len(p)) + [
                [(e - 1) * n + i for i, e in enumerate(exps) if e] for exps in p]
        first, unit = degree * n, degree * n + len(coef)
        width = max(map(len, factors))
        # factors[j] is each term's j-th factor: its coefficient, a power or 1
        self.factors = np.array([[first + t] + f + [unit] * (width - len(f))
                                 for t, f in enumerate(factors)]).T
        self.shape = (len(polys), length, -1)
        corners = 1 << n if n <= 4 else 0
        self.corner_hi = (np.arange(corners)[:, None] >> np.arange(n - 1, -1, -1)) & 1 == 1
        self.table = np.empty((unit + 1, 1 + corners + SAMPLES_PER_NODE))
        # powers[e - 1, i] is the row of x_i**e; candidate c is column c
        self.powers = self.table[:first].reshape(degree, n, -1)
        self.points, self.samples = self.powers[0].T, self.powers[0][:, 1 + corners:]
        self.table[first:unit] = np.array(coef)[:, None]
        self.table[unit] = 1.0

    def __call__(self, node: BnbNode) -> tuple[float, tuple[float, ...] | None]:
        """Best feasible (value, point) among node's candidates."""
        pts, powers, table = self.points, self.powers, self.table
        lo, hi = np.array(node.lower), np.array(node.upper)
        self.bits.advance((node.node_id * self.block - self.drawn) % 2**128)
        self.drawn = (node.node_id + 1) * self.block
        u = (self.bits.random_raw(self.block) >> 11).reshape(len(lo), -1) * 2.0**-53
        u *= (hi - lo)[:, None]
        np.add(u, lo[:, None], out=self.samples)  # lo + (hi - lo) * u, row by row
        pts[0] = (lo + hi) / 2.0
        pts[1:1 + len(self.corner_hi)] = np.where(self.corner_hi, hi, lo)
        for e in range(1, len(powers)):  # x**(e + 1) = x**e * x, every variable at once
            np.multiply(powers[e - 1], powers[0], out=powers[e])
        # Products and sums run factor by factor and term by term, in order.
        terms = np.multiply.reduce(table[self.factors], axis=0)
        sums = np.add.reduce(terms.reshape(self.shape), axis=1, initial=0.0)
        values = sums[0]
        usable = values < math.inf  # NaN is no minimum
        if len(sums) > 1:
            usable &= ~(sums[1:] < -1e-9).any(axis=0)
        best = int(np.argmin(np.where(usable, values, math.inf)))
        if not usable[best]:
            return math.inf, None
        return float(values[best]), tuple(pts[best].tolist())


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
    whose record carries the mapped status.  Exponents that do not fit
    the instance raise ValueError (PipelineOptions.check_fits).

    seed, any int (numpy's too), seeds the run's one PCG64 sampling stream
    (_Sampler) with entropy 2 * seed, or -2 * seed - 1 below 0: one stream
    a seed, and a node's samples depend on (seed, node_id, n) alone.
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

    incumbent_value, incumbent_point = math.inf, None
    sample = _Sampler(inst, seed)
    next_id, nodes_solved, error_nodes = 1, 0, 0
    records: list[NodeRecord] = []
    closed_min = math.inf  # smallest bound of a closed leaf

    # Best-first by inherited bound, then deepest, then oldest.
    heap = [(-math.inf, 0, 0, BnbNode(0, inst.lower, inst.upper, 0, -math.inf))]
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

        val, pt = sample(node)
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
        children = branch(node, effective, next_id)
        if children is None:
            closed_min = min(closed_min, effective)
            continue
        next_id += 2
        for child in children:
            heapq.heappush(heap, (effective, -child.depth, child.node_id, child))
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
