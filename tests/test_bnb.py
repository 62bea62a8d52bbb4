import json
import math
import warnings

import pytest

from soncbound import bnb, pipeline
from soncbound import status as st
from soncbound.barrier import SolverOptions
from soncbound.bnb import EXHAUSTED, GAP_REACHED, NODE_LIMIT, BnbNode, branch, solve_bnb
from soncbound.generator import generate_instance
from soncbound.pipeline import PipelineOptions, prepare_root
from soncbound.poly import parse_instance

TIGHT = PipelineOptions(solver=SolverOptions(tol_gap=1e-8, tol_kkt=1e-5))


def inst_from(d):
    return parse_instance(json.dumps(d))


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
        left, right = branch(node)
        assert left.upper == (0.5, 1.0) and right.lower == (0.5, 0.0)
        assert left.depth == right.depth == 1

    def test_interval_split(self):
        node = BnbNode(0, (0.0,), (1.0,), 3, -5.0)
        left, right = branch(node)
        assert left.upper == (0.5,) and right.lower == (0.5,)
        assert left.parent_bound == right.parent_bound == -5.0

    def test_degenerate_box_is_leaf(self):
        assert branch(BnbNode(0, (1.0,), (1.0,), 0, -math.inf)) is None


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


# The benchmark's B&B pair: 1 distinct big-M vector in 40 nodes on the
# demo instance, 9 on HARD.
DEMO = generate_instance(1002, n=2, m=1, max_degree=4)
NODE_RUNS = [
    pytest.param(DEMO, TIGHT, 1, id="demo"),
    pytest.param(HARD, PipelineOptions(solver=TIGHT.solver, exponents=(4,)), 9, id="hard"),
]


class TestNodeResultsReused:
    """solve_bnb solves each distinct node relaxation once and matches a
    run that solves every node on a fresh root."""

    @pytest.mark.parametrize("inst, options, distinct", NODE_RUNS)
    def test_same_result_as_fresh_root_per_node(self, monkeypatch, inst, options, distinct):
        cached = solve_bnb(inst, options, max_nodes=40, gap_tol=1e-6, seed=0)

        def fresh(root, lower, upper):
            return pipeline.solve_on_box(prepare_root(inst, options), lower, upper)

        monkeypatch.setattr(bnb, "solve_on_box", fresh)
        plain = solve_bnb(inst, options, max_nodes=40, gap_tol=1e-6, seed=0)
        assert cached.nodes == plain.nodes == 40
        assert cached.records == plain.records
        assert cached.lower_bound == plain.lower_bound
        assert cached.incumbent_value == plain.incumbent_value
        assert cached.incumbent_point == plain.incumbent_point
        assert cached.error_nodes == plain.error_nodes
        assert cached.status == plain.status
        assert cached.relaxations_solved == distinct

    @pytest.mark.parametrize("inst, options, distinct", NODE_RUNS)
    def test_one_solve_per_distinct_big_m(self, monkeypatch, inst, options, distinct):
        solves = []
        original = pipeline.solve_relaxation

        def counted(*args):
            solves.append(args)
            return original(*args)

        monkeypatch.setattr(pipeline, "solve_relaxation", counted)
        res = solve_bnb(inst, options, max_nodes=40, gap_tol=1e-6, seed=0)
        assert res.nodes == 40
        assert len(solves) == res.relaxations_solved == distinct


def test_wide_box_raises_no_warning():
    """x^7 - x on [-1000, 1000]: every node may fail, but no NaN reaches numpy."""
    inst = inst_from({"n": 1, "objective": [[[7], 1.0], [[1], -1.0]], "constraints": [],
                      "lower": [-1000], "upper": [1000]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = solve_bnb(inst, max_nodes=30)
    assert res.nodes == 30
