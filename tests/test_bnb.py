import dataclasses
import itertools
import math
import random
import warnings

import numpy as np
import pytest

from soncbound import barrier, bnb, pipeline
from soncbound import status as st
from soncbound.barrier import SolverOptions
from soncbound.bnb import EXHAUSTED, GAP_REACHED, NODE_LIMIT, BnbNode, branch, solve_bnb
from soncbound.certify import sample_soundness_check, strict_gamma_float
from soncbound.generator import generate_instance
from soncbound.pipeline import PipelineOptions, prepare_root
from soncbound.poly import evaluate

from builders import inst_from

TIGHT = PipelineOptions(solver=SolverOptions(tol_gap=1e-8, tol_kkt=1e-5))


MIN_X = inst_from({"n": 1, "objective": [[[1], -1.0]], "constraints": [],
                   "lower": [-1], "upper": [2]})
MIN_X2 = inst_from({"n": 1, "objective": [[[2], -1.0]], "constraints": [],
                    "lower": [-1], "upper": [2]})
# x^2 - x^4 on [-1,1]: the relaxation bound stays loose away from the origin
HARD = inst_from({"n": 1, "objective": [[[2], 1.0], [[4], -1.0]], "constraints": [],
                  "lower": [-1], "upper": [1]})


class TestBranch:
    def test_widest_coordinate_split(self):
        node = BnbNode(0, (-1.0, 0.0), (2.0, 1.0), 0, -math.inf)
        left, right = branch(node, -3.0, 7)
        assert left.upper == (0.5, 1.0) and right.lower == (0.5, 0.0)
        assert left.depth == right.depth == 1
        assert (left.node_id, right.node_id) == (7, 8)

    def test_interval_split(self):
        node = BnbNode(0, (0.0,), (1.0,), 3, -7.0)
        left, right = branch(node, -5.0, 1)
        assert left.upper == (0.5,) and right.lower == (0.5,)
        assert left.parent_bound == right.parent_bound == -5.0

    def test_degenerate_box_is_leaf(self):
        assert branch(BnbNode(0, (1.0,), (1.0,), 0, -math.inf), -1.0, 1) is None


class TestSolveBnb:
    def test_min_x2_closes_at_root(self):
        res = solve_bnb(MIN_X2, TIGHT, max_nodes=50, gap_tol=1e-6, seed=0)
        assert res.status == GAP_REACHED
        assert res.nodes == 1
        assert res.lower_bound == pytest.approx(-4.0, abs=1e-5)
        assert res.incumbent_value == pytest.approx(-4.0, abs=1e-9)
        assert res.incumbent_point == pytest.approx((2.0,))

    def test_min_x_closes_at_root(self):
        res = solve_bnb(MIN_X, TIGHT, max_nodes=50, gap_tol=1e-6, seed=0)
        assert res.status == GAP_REACHED
        assert res.nodes == 1
        assert res.lower_bound == pytest.approx(-2.0, abs=1e-5)
        assert res.incumbent_value == pytest.approx(-2.0, abs=1e-9)

    def test_node_cap_semantics(self):
        res = solve_bnb(HARD, PipelineOptions(solver=TIGHT.solver, exponents=(4,)),
                        max_nodes=1, gap_tol=1e-6, seed=0)
        assert res.status == NODE_LIMIT
        assert res.nodes == 1
        assert res.incumbent_value - res.lower_bound > 1e-6
        assert res.lower_bound <= res.incumbent_value

    def test_lower_bound_never_exceeds_incumbent(self):
        for i in (0, 3, 6, 9):
            inst = generate_instance(1000 + i, n=1, m=i % 3, max_degree=3 + i % 4)
            res = solve_bnb(inst, TIGHT, max_nodes=15, gap_tol=1e-4, seed=0)
            assert res.lower_bound <= res.incumbent_value + 1e-9

    def test_child_bounds_dominate_parent(self):
        # the M-derived model can only tighten on sub-boxes
        violations = 0
        for i in (0, 9, 12, 21):
            inst = generate_instance(1000 + i, n=1, m=i % 3, max_degree=3 + i % 4)
            res = solve_bnb(inst, TIGHT, max_nodes=15, gap_tol=1e-4, seed=0)
            for rec in res.records:
                if rec.computed_bound is not None:
                    if rec.computed_bound < rec.parent_bound - 1e-7:
                        violations += 1
        assert violations == 0

    def test_terminates_quickly_on_root_tight_instances(self):
        for i in (0, 3, 6):
            inst = generate_instance(1000 + i, n=1, m=i % 3, max_degree=3 + i % 4)
            res = solve_bnb(inst, TIGHT, max_nodes=10_000, gap_tol=1e-4, seed=0)
            assert res.status == GAP_REACHED
            assert res.nodes <= 10

    @pytest.mark.xfail(
        reason="the relaxation bound depends on a sub-box only through "
        "max(|l|,|u|), so boxes away from the origin cannot be localized; "
        "instances whose root-scale bound gap exceeds gap_tol tile such "
        "regions down to the width cutoff instead of closing the gap",
        strict=False,
    )
    def test_termination_within_node_budget_on_nonlocalizing_instance(self):
        res = solve_bnb(HARD, PipelineOptions(solver=TIGHT.solver, exponents=(4,)),
                        max_nodes=60, gap_tol=1e-4, seed=0)
        assert res.status == GAP_REACHED

    def test_determinism(self):
        r1 = solve_bnb(MIN_X2, TIGHT, max_nodes=20, gap_tol=1e-6, seed=3)
        r2 = solve_bnb(MIN_X2, TIGHT, max_nodes=20, gap_tol=1e-6, seed=3)
        assert r1 == r2

    def test_exhausted_when_every_leaf_closes_short_of_the_gap(self):
        # min x on [0, 1e-8] at gap 0: every node's solve stalls on so thin a
        # box (ROADMAP item 4), and branching stops at WIDTH_EPS after 31 nodes
        inst = inst_from({"n": 1, "objective": [[[1], 1.0]], "constraints": [],
                          "lower": [0], "upper": [1e-8]})
        res = solve_bnb(inst, max_nodes=1000, gap_tol=0.0, seed=0)
        assert res.status == EXHAUSTED
        assert res.nodes < 1000
        assert res.lower_bound <= res.incumbent_value

    def test_gap_reached_with_nodes_still_open(self, monkeypatch):
        """-x^2 on [-2, 2] with no incumbent at the root: node 1 finds the
        optimum, and the search stops before node 2, whose inherited bound
        already meets it."""

        class LateSampler(bnb._Sampler):
            def __call__(self, node):
                return (math.inf, None) if node.node_id == 0 else super().__call__(node)

        monkeypatch.setattr(bnb, "_Sampler", LateSampler)
        inst = inst_from({"n": 1, "objective": [[[2], -1.0]], "constraints": [],
                          "lower": [-2], "upper": [2]})
        res = solve_bnb(inst, TIGHT, max_nodes=40, gap_tol=1e-6, seed=0)
        assert res.status == GAP_REACHED
        assert [r.node_id for r in res.records] == [0, 1] and res.nodes == 2
        assert res.incumbent_value == -4.0
        assert 0.0 <= res.incumbent_value - res.lower_bound <= 1e-6


class TestPrepareFailure:
    """A root that cannot be prepared gives bound -inf and one error node."""

    def _check(self, inst, options, status):
        lines = []
        res = solve_bnb(inst, options, max_nodes=10, seed=0, log=lines.append)
        assert res.lower_bound == -math.inf
        assert res.incumbent_value == math.inf and res.incumbent_point is None
        assert res.status == EXHAUSTED
        assert res.nodes == 1 and res.error_nodes == 1 and res.relaxations_solved == 0
        (rec, ) = res.records
        assert rec.status == status and rec.computed_bound is None
        assert rec.effective_bound == -math.inf
        assert lines == [f"node 0 depth 0 bound -inf incumbent inf status {status}"]

    def test_big_m_overflow(self):
        huge = inst_from({"n": 1, "objective": [[[1], -1.0]], "constraints": [],
                          "lower": [-1e200], "upper": [1e200]})
        self._check(huge, TIGHT, st.NUMERICAL_ERROR)

    def test_cover_unavailable_without_bound_constraints(self):
        self._check(MIN_X, PipelineOptions(use_bound_constraints=False), st.COVER_UNAVAILABLE)


HARD_OPTIONS = PipelineOptions(solver=TIGHT.solver, exponents=(4,))
# The benchmark's B&B pair: 1 distinct big-M vector in 40 nodes on the
# demo instance, 9 on HARD.
DEMO = generate_instance(1002, n=2, m=1, max_degree=4)
NODE_RUNS = [
    pytest.param(DEMO, TIGHT, 1, id="demo"),
    pytest.param(HARD, HARD_OPTIONS, 9, id="hard"),
]


def _node_results(monkeypatch, solve):
    """Wrap bnb.solve_on_box with solve(root, lower, upper); returns the
    list of (lower, upper, result) it fills, one per node."""
    results = []

    def recorded(root, lower, upper):
        res = solve(root, lower, upper)
        results.append((lower, upper, res))
        return res

    monkeypatch.setattr(bnb, "solve_on_box", recorded)
    return results


class TestNodeResultsReused:
    """solve_bnb solves each distinct node relaxation once and matches a
    run that solves every node on a fresh root.

    A fresh root has no warm start, so each of its node relaxations
    starts cold.  The demo has one relaxation and matches bit for bit.
    HARD's later relaxations start warm in the shared run, so there its
    bounds match the cold ones within the solver's gap tolerance, and
    everything else exactly."""

    @pytest.mark.parametrize("inst, options, distinct", NODE_RUNS)
    def test_same_result_as_fresh_root_per_node(self, monkeypatch, inst, options, distinct):
        shared = _node_results(monkeypatch, pipeline.solve_on_box)
        cached = solve_bnb(inst, options, max_nodes=40, gap_tol=1e-6, seed=0)
        fresh = _node_results(monkeypatch, lambda root, lower, upper: pipeline.solve_on_box(
            prepare_root(inst, options), lower, upper))
        plain = solve_bnb(inst, options, max_nodes=40, gap_tol=1e-6, seed=0)
        assert cached.nodes == plain.nodes == 40
        assert cached.incumbent_value == plain.incumbent_value
        assert cached.incumbent_point == plain.incumbent_point
        assert cached.error_nodes == plain.error_nodes
        assert cached.status == plain.status
        assert cached.relaxations_solved == distinct
        if distinct == 1:
            assert cached.records == plain.records
            assert cached.lower_bound == plain.lower_bound
            return
        assert ([(r.node_id, r.depth, r.status) for r in cached.records]
                == [(r.node_id, r.depth, r.status) for r in plain.records])
        tol = options.solver.tol_gap
        for (lower, upper, warm), (_, _, cold) in zip(shared, fresh):
            assert cold.status == warm.status == st.OPTIMAL
            gamma = cold.gamma_certified
            assert abs(warm.gamma_certified - gamma) <= tol * (1.0 + abs(gamma))
            for res in (warm, cold):
                assert strict_gamma_float(res.model, res.certificate) <= res.gamma_certified
        assert abs(cached.lower_bound - plain.lower_bound) <= tol * (1.0 + abs(plain.lower_bound))

    @pytest.mark.parametrize("inst, options, distinct", NODE_RUNS)
    def test_one_solve_per_distinct_big_m(self, monkeypatch, inst, options, distinct):
        solves = []
        original = pipeline.solve_relaxation

        def counted(*args, **kwargs):
            solves.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(pipeline, "solve_relaxation", counted)
        res = solve_bnb(inst, options, max_nodes=40, gap_tol=1e-6, seed=0)
        assert res.nodes == 40
        assert len(solves) == res.relaxations_solved == distinct


DEMO_BOUND, HARD_ROOT = -10.263656839336845, -1.0000000148514854
# HARD's last eight records: the siblings of its dive's deepest nodes,
# deepest first, each with a relaxation of its own.
HARD_DIVE = ((62, 31, -1.000000011126195), (60, 30, -1.0000000074009048),
             (58, 29, -0.9999999999503243), (56, 28, -0.9999999850491632),
             (54, 27, -0.9999999552468416), (52, 26, -0.9999998956422004),
             (50, 25, -0.9999997764329259), (48, 24, -0.9999995380144127))
PINNED = {
    "demo": (DEMO_BOUND, -8.100893331549099, (-1.4371547789342736, -1.7362493969655806), 1,
             [(0, 0, -math.inf, DEMO_BOUND, DEMO_BOUND)]
             + [(2 * d - 1, d, DEMO_BOUND, DEMO_BOUND, DEMO_BOUND) for d in range(1, 40)]),
    "hard": (HARD_ROOT, 0.0, (0.0,), 9,
             [(0, 0, -math.inf, HARD_ROOT, HARD_ROOT)]
             + [(2 * d - 1, d, HARD_ROOT, HARD_ROOT, HARD_ROOT) for d in range(1, 32)]
             + [(i, d, HARD_ROOT, bound, bound) for i, d, bound in HARD_DIVE]),
}


class TestPinnedResults:
    """The benchmark's B&B runs (40 nodes, gap 1e-6), bit for bit as
    solved before the barrier plan was reused and the sampler compiled:
    bounds, incumbents, counts and every record, at sampling seeds 0 and
    1 alike."""

    @pytest.mark.parametrize("seed", (0, 1))
    @pytest.mark.parametrize("inst, options, name", [
        pytest.param(DEMO, TIGHT, "demo", id="demo"),
        pytest.param(HARD, HARD_OPTIONS, "hard", id="hard")])
    def test_run(self, inst, options, name, seed):
        bound, value, point, relaxations, records = PINNED[name]
        res = solve_bnb(inst, options, max_nodes=40, gap_tol=1e-6, seed=seed)
        assert (res.lower_bound, res.incumbent_value, res.incumbent_point) == (bound, value, point)
        assert (res.nodes, res.relaxations_solved, res.status, res.error_nodes) == (
            40, relaxations, NODE_LIMIT, 0)
        assert res.records == tuple(bnb.NodeRecord(*r, st.OPTIMAL) for r in records)


class TestWarmStart:
    """Node relaxations after a root's first re-enter the central path
    of the last one solved (barrier._enter_path)."""

    def test_hard_dive_starts_warm_and_certifies(self, monkeypatch):
        solves = []
        original = pipeline.solve_relaxation

        def recorded(*args, **kwargs):
            solves.append(original(*args, **kwargs))
            return solves[-1]

        monkeypatch.setattr(pipeline, "solve_relaxation", recorded)
        nodes = _node_results(monkeypatch, pipeline.solve_on_box)
        res = solve_bnb(HARD, HARD_OPTIONS, max_nodes=40, gap_tol=1e-6, seed=0)
        assert res.relaxations_solved == len(solves) == 9
        assert [s.start for s in solves] == [barrier.START_CONSTRUCTIVE] + [barrier.START_WARM] * 8
        assert sum(s.iterations for s in solves[1:]) < solves[0].iterations
        assert len(nodes) == 40
        for lower, upper, node in nodes:
            assert node.status == st.OPTIMAL
            strict = strict_gamma_float(node.model, node.certificate)
            assert strict <= node.gamma_certified <= node.gamma_solver
            box = dataclasses.replace(HARD, lower=lower, upper=upper)
            assert sample_soundness_check(box, node.gamma_certified).ok()

    def test_warm_entry_solves_one_newton_system(self, monkeypatch):
        """The system by which _enter_path accepts a point is its first
        centering too: HARD's run solves 45 Newton systems, where solving
        that one again took 53, one more for each of its 8 warm starts."""
        calls = []
        newton_step = barrier._newton_step

        def counted(*args):
            calls.append(args)
            return newton_step(*args)

        monkeypatch.setattr(barrier, "_newton_step", counted)
        res = solve_bnb(HARD, HARD_OPTIONS, max_nodes=40, gap_tol=1e-6, seed=0)
        assert res.relaxations_solved == 9 and len(calls) == 45

    def test_uncentered_source_gives_the_cold_solve(self):
        root = prepare_root(HARD, HARD_OPTIONS)
        source = pipeline.solve_on_box(root, (-1.0,), (1.0,)).solve
        child = pipeline.solve_on_box(root, (-0.75,), (0.75,)).model
        prob = barrier.phase2_plan(child)
        # Each point of the path, read at 100 times its weight, is strictly
        # feasible for the child but far from its center there.
        off = tuple(p._replace(tau=100.0 * p.tau) for p in source.path)
        assert len(off) >= 3
        budget = barrier._budget_row(child)
        for p in off:
            z = p.z.copy()
            z[child.gamma_index] += child.rows[budget] @ z + child.rhs[budget] - p.budget_slack
            point = barrier._Point(prob, z)
            assert point.margin > 0.0
            assert barrier._newton_step(point, p.tau, p.duals * point.joined)[1] \
                > barrier.LONG_STEP_DECREMENT
        cold = barrier.solve_relaxation(child, HARD_OPTIONS.solver)
        got = barrier.solve_relaxation(child, HARD_OPTIONS.solver,
                                       warm=dataclasses.replace(source, path=off))
        assert got.start == cold.start == barrier.START_CONSTRUCTIVE
        for f in dataclasses.fields(cold):  # the path, compare=False, follows
            if not f.compare:
                continue
            a, b = getattr(got, f.name), getattr(cold, f.name)
            assert (a.tobytes() == b.tobytes() if isinstance(a, np.ndarray) else a == b), f.name
        assert len(got.path) == len(cold.path)
        for a, b in zip(got.path, cold.path):
            assert a.tau == b.tau and a.budget_slack == b.budget_slack
            assert a.z.tobytes() == b.z.tobytes() and a.duals.tobytes() == b.duals.tobytes()

    def test_source_of_another_shape_gives_the_cold_solve(self):
        source = pipeline.solve_on_box(prepare_root(HARD, HARD_OPTIONS), (-1.0,), (1.0,)).solve
        model = prepare_root(DEMO, TIGHT).model
        assert source.path and len(source.path[0].z) != model.nvar
        cold = barrier.solve_relaxation(model, TIGHT.solver)
        got = barrier.solve_relaxation(model, TIGHT.solver, warm=source)
        assert got.status == st.OPTIMAL and got.start == cold.start != barrier.START_WARM
        _assert_same_solve(got, cold)

    def test_warm_path_keeps_the_source_points_below_its_start(self):
        root = prepare_root(HARD, HARD_OPTIONS)
        source = pipeline.solve_on_box(root, (-1.0,), (1.0,)).solve
        child = pipeline.solve_on_box(root, (-1.0 + 1e-8,), (1.0 - 1e-8,)).solve
        assert child.start == barrier.START_WARM
        start = child.path[len(child.path) - len(child.gamma_trace)].tau
        kept = [p for p in source.path if p.tau < start]
        assert [p.tau for p in child.path[:len(kept)]] == [p.tau for p in kept]
        assert all(a.z is b.z for a, b in zip(child.path, kept))

    def test_hard_is_deterministic(self):
        r1 = solve_bnb(HARD, HARD_OPTIONS, max_nodes=40, gap_tol=1e-6, seed=0)
        r2 = solve_bnb(HARD, HARD_OPTIONS, max_nodes=40, gap_tol=1e-6, seed=0)
        assert r1 == r2  # every record, its bounds included


def _assert_same_solve(got, want):
    """Every field of two solve results equal, arrays and path points byte for byte."""
    for f in dataclasses.fields(want):
        if f.compare:  # the path, compare=False, follows
            a, b = getattr(got, f.name), getattr(want, f.name)
            assert (a.tobytes() == b.tobytes() if isinstance(a, np.ndarray) else a == b), f.name
    assert len(got.path) == len(want.path)
    for a, b in zip(got.path, want.path):
        assert a.tau == b.tau and a.budget_slack == b.budget_slack
        assert a.z.tobytes() == b.z.tobytes() and a.duals.tobytes() == b.duals.tobytes()


def test_wide_box_raises_no_warning():
    """x^7 - x on [-1000, 1000]: every node may fail, but no NaN reaches numpy."""
    inst = inst_from({"n": 1, "objective": [[[7], 1.0], [[1], -1.0]], "constraints": [],
                      "lower": [-1000], "upper": [1000]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = solve_bnb(inst, max_nodes=30)
    assert res.nodes == 30


def _evaluate_points(p, points):
    """p at every point in Python floats: x**e as the left-to-right
    product of e factors, each term its coefficient times its powers in
    variable order, the terms summed from 0.0 in p's order.  The compiled
    sampler must reproduce this bit for bit."""
    values = []
    for x in points:
        total = 0.0
        for exps, coeff in p.items():
            term = coeff
            for v, e in zip(x, exps):
                if e:
                    power = v
                    for _ in range(e - 1):
                        power *= v
                    term *= power
            total += term
        values.append(total)
    return values


def _sample_incumbent_reference(inst, node, seed):
    """The sampler's (value, point) from numpy's PCG64 raw outputs at the
    node's offset, placed and evaluated in Python floats, and the value
    by the scalar evaluate."""
    bits = np.random.PCG64(2 * seed if seed >= 0 else -2 * seed - 1)
    block = bnb.SAMPLES_PER_NODE * inst.n
    bits.advance(node.node_id * block)
    raw = bits.random_raw(block).tolist()  # x_i of sample s at i * S + s
    cands = [tuple((lo + hi) / 2.0 for lo, hi in zip(node.lower, node.upper))]
    if inst.n <= 4:
        cands.extend(itertools.product(*zip(node.lower, node.upper)))
    for s in range(bnb.SAMPLES_PER_NODE):
        cands.append(tuple(lo + (hi - lo) * ((raw[i * bnb.SAMPLES_PER_NODE + s] >> 11) * 2.0**-53)
                           for i, (lo, hi) in enumerate(zip(node.lower, node.upper))))
    values = _evaluate_points(inst.objective, cands)
    usable = [v < math.inf for v in values]  # NaN is no minimum
    for g in inst.constraints:
        usable = [u and not v < -1e-9 for u, v in zip(usable, _evaluate_points(g, cands))]
    if not any(usable):
        return math.inf, None, math.inf
    best = min((k for k in range(len(cands)) if usable[k]), key=values.__getitem__)
    return values[best], cands[best], evaluate(inst.objective, cands[best])


# -1 - x^2 >= 0 holds nowhere: no candidate is feasible.
NO_FEASIBLE = inst_from({"n": 1, "objective": [[[1], 1.0]],
                         "constraints": [[[[0], -1.0], [[2], -1.0]]],
                         "lower": [-1], "upper": [1]})
# min -x s.t. -x y >= 0 on [-1, 0]^2: where x = 0 both terms are -0.0,
# the objective's sum from 0.0 is +0.0 and the constraint holds.
SIGNED_ZERO = inst_from({"n": 2, "objective": [[[1, 0], -1.0]],
                         "constraints": [[[[1, 1], -1.0]]],
                         "lower": [-1, -1], "upper": [0, 0]})


def _assert_matches_reference(got, inst, node, seed):
    val, pt = got
    want_val, want_pt, scalar_val = _sample_incumbent_reference(inst, node, seed)
    assert pt == want_pt
    assert pt is None or all(type(v) is float for v in pt)
    assert np.float64(val).tobytes() == np.float64(want_val).tobytes()
    if want_pt is not None:
        assert val == pytest.approx(scalar_val, rel=1e-12, abs=1e-300)


def test_sampler_matches_reference():
    """Random sub-boxes of generated instances of 1-6 variables, among
    them degenerate ones, and the -0.0 cases: one sampler per instance
    and seed serves every node."""
    rng = random.Random(7)
    insts = [NO_FEASIBLE, SIGNED_ZERO] + [
        generate_instance(s, n=1 + s % 6, m=s % 3, max_degree=3 + s % 9) for s in range(40)]
    for inst in insts:
        for seed in (0, 3):
            sample = bnb._Sampler(inst, seed)
            for node_id in range(5):
                lower, upper = [], []
                for lo, hi in zip(inst.lower, inst.upper):
                    a, b = sorted((rng.uniform(lo, hi), rng.uniform(lo, hi)))
                    lower.append(a)
                    upper.append(a if node_id == 4 else b)
                node = BnbNode(node_id, tuple(lower), tuple(upper), 1, -math.inf)
                _assert_matches_reference(sample(node), inst, node, seed)
    box = BnbNode(0, SIGNED_ZERO.lower, SIGNED_ZERO.upper, 0, -math.inf)
    val, pt = bnb._Sampler(SIGNED_ZERO, 0)(box)
    assert pt == (0.0, -1.0)  # the first corner with x = 0
    assert np.float64(val).tobytes() == np.float64(0.0).tobytes()


# sum (x_i - 0.3)^2 on [-1, 1]^3: a sample, not the center or a corner, is best
NEAR_POINT_THREE = inst_from({
    "n": 3, "objective": [[[2, 0, 0], 1.0], [[0, 2, 0], 1.0], [[0, 0, 2], 1.0],
                          [[1, 0, 0], -0.6], [[0, 1, 0], -0.6], [[0, 0, 1], -0.6]],
    "constraints": [], "lower": [-1, -1, -1], "upper": [1, 1, 1]})


def test_sampler_matches_reference_for_wide_keys():
    """Negative seeds, a seed past 2**64, and node ids from 10**6 and
    2**33, the last one behind its predecessor: one generator, reused,
    moves forward and back to each node's block."""
    inst = NEAR_POINT_THREE
    for seed in (4295, 10**9, -7, 2**70):
        sample = bnb._Sampler(inst, seed)
        for node_id in (10**6, 10**6 + 1, 2**33 + 5, 2**33):
            node = BnbNode(node_id, inst.lower, inst.upper, 3, -math.inf)
            assert _sample_incumbent_reference(inst, node, seed)[1] not in (
                (0.0, 0.0, 0.0), *itertools.product((-1.0, 1.0), repeat=3))
            _assert_matches_reference(sample(node), inst, node, seed)


def test_sampler_ignores_node_order():
    """A node's samples depend on (seed, node_id, n) alone: the same nodes,
    whose blocks reach past 2**64 outputs, in shuffled order or each from
    a fresh sampler, give the same results.  np.int64(5) keys seed 5's
    stream; -5, 0 and 6 key others."""
    rng = random.Random(11)
    nodes = [BnbNode(k, (-1.0, -0.5, -1.0), (0.75, 1.0, 0.5), 2, -math.inf)
             for k in [0, 1, 2, 7, 40, 2**33, 2**33 + 1, 3 * 2**60]]
    want = [bnb._Sampler(NEAR_POINT_THREE, 5)(node) for node in nodes]
    for _ in range(3):
        order = rng.sample(range(len(nodes)), len(nodes))
        sample = bnb._Sampler(NEAR_POINT_THREE, 5)
        got = {k: sample(nodes[k]) for k in order}
        assert [got[k] for k in range(len(nodes))] == want
    assert [bnb._Sampler(NEAR_POINT_THREE, np.int64(5))(node) for node in nodes] == want
    for seed in (-5, 0, 6):
        sample = bnb._Sampler(NEAR_POINT_THREE, seed)
        assert all(sample(node)[1] != w[1] for node, w in zip(nodes, want))


@pytest.mark.parametrize("seed", (-7, 2**70))
def test_any_int_seed(seed):
    """solve_bnb takes any int seed, numpy's too: the same run from the
    same seed, an incumbent no worse than the root's samples."""
    res = solve_bnb(NEAR_POINT_THREE, TIGHT, max_nodes=3, gap_tol=1e-6, seed=seed)
    assert (res.nodes, res.error_nodes) == (3, 0)
    assert res.lower_bound <= res.incumbent_value
    root = BnbNode(0, NEAR_POINT_THREE.lower, NEAR_POINT_THREE.upper, 0, -math.inf)
    assert res.incumbent_value <= bnb._Sampler(NEAR_POINT_THREE, seed)(root)[0]
    same = np.int64(seed) if seed == -7 else seed  # 2**70 is past int64
    assert solve_bnb(NEAR_POINT_THREE, TIGHT, max_nodes=3, gap_tol=1e-6, seed=same) == res


# Odd and even powers up to 12 over a box of mixed sign in x that touches 0
# in y: the best candidate is often a sample with x < 0.
MIXED_SIGNS = inst_from({
    "n": 2,
    "objective": [[[12, 0], 1.0], [[3, 5], -2.0], [[5, 0], 0.7], [[0, 7], -1.0],
                  [[11, 1], 0.25], [[1, 2], 1.0], [[0, 0], -1.0]],
    "constraints": [[[[0, 0], 3.0], [[9, 1], -1.0], [[0, 4], -1.0]]],
    "lower": [-1.5, 0.0], "upper": [1.25, 1.1]})


def test_sampler_matches_reference_on_mixed_signs():
    boxes = [((-1.5, 0.0), (1.25, 1.1)), ((-1.5, 0.0), (-0.125, 1.1)),
             ((-0.8, 0.0), (0.4, 0.55)), ((0.0, 0.0), (1.25, 0.55))]
    for seed in range(10):
        sample = bnb._Sampler(MIXED_SIGNS, seed)
        for node_id, (lower, upper) in enumerate(boxes):
            node = BnbNode(node_id, lower, upper, 1, -math.inf)
            _assert_matches_reference(sample(node), MIXED_SIGNS, node, seed)
